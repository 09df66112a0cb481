"""Compare the benchmark of the working tree with a revision, in pairs.

    python3 tools/bench_pairs.py --base REV --tag NAME [--pairs 10]
        [--workload W ...] [--seed 0] [--seconds 20]

exports REV with ``git archive`` into the directory ``base`` of a
temporary directory and copies the working tree's files (tracked and
untracked, not ignored) into its sibling ``tree``: both sides run from fresh
copies whose paths have the same length, since ``peak_rss_mib`` and
``setup_s`` move with the directory a checkout sits in and with what earlier
runs left in it.  It runs the unchanged ``perfbench/run.py --workload W
--seed S --seconds T`` of each side in its own copy, alternating: pair k
runs the base first when k is even and the working tree first when k is
odd.  Every run's end-to-end
metrics are read off the last line of its output, its sweep counts off its
``perfbench/out/<workload>/run.json``, and the minor page faults of all its
processes off ``RUSAGE_CHILDREN``.

It writes ``BENCH_<NAME>.json`` at the root of the repository with, per
workload and end-to-end metric of ``BENCHMARK.json``, both sides' values,
medians and quartiles, the number of pairs the working tree won, the
relative change of the median, and the metric's bound; the same for
``minflt_per_round``, a run's ``ru_minflt`` over its rounds, since a faster
side fits more rounds into a run of fixed length; plus the machine, the
library versions, the commit ids of both sides and the paths they ran
from.  A run takes about
25 s per workload and side with ``--seconds 20``.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bit_identity import _export

ROOT = Path(__file__).resolve().parents[1]


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _copy_worktree(dest):
    """Copy the working tree's files that git tracks or would track."""
    files = _git("ls-files", "--cached", "--others", "--exclude-standard",
                 "-z").split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _run(tree, workload, seed, seconds):
    """One benchmark run in ``tree``: its metrics, sweeps and minor faults."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if proc.returncode != 0:
        raise SystemExit(f"{workload} in {tree} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        Path(tree, "perfbench", "out", workload, "run.json").read_text())
    solves = record["rounds"][0]["solves"]
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run.update(correct=result["correct"], failed=result["failed"],
               rounds=len(record["rounds"]), ru_minflt=minflt,
               sweeps=[s.get("sweeps") for s in solves])
    return run, record


def _spread(values):
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def _value(run, name):
    """Metric ``name`` of one run; the minor faults per round are derived
    from the whole run's count."""
    if name == "minflt_per_round":
        return run["ru_minflt"] / run["rounds"]
    return run[name]


def summarise(runs, end_to_end):
    """Per metric: both sides' spreads, pairs won by the working tree and
    the relative change of the median."""
    out = {}
    for metric in end_to_end + [{"name": "minflt_per_round",
                                 "better": "lower", "bound": None}]:
        name = metric["name"]
        base = [_value(r["base"], name) for r in runs]
        tree = [_value(r["tree"], name) for r in runs]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        a, b = _spread(base), _spread(tree)
        out[name] = {
            "better": metric["better"], "bound": metric["bound"],
            "base": a, "tree": b,
            "tree_wins": sum(sign * (t - s) < 0 for s, t in zip(base, tree)),
            "median_change": (b["median"] - a["median"]) / a["median"]
            if a["median"] else None,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--tag", required=True,
                        help="the output is BENCH_<tag>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    base_commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    result = {
        "base": {"rev": args.base, "commit": base_commit},
        "tree": {"head": _git("rev-parse", "HEAD"),
                 "uncommitted": _git("status", "--porcelain",
                                     "--untracked-files=no").splitlines()},
        "pairs": args.pairs, "seed": args.seed, "seconds": args.seconds,
        "order": "pair k runs the base first when k is even",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": Path(tmp, "base"), "tree": Path(tmp, "tree")}
        for side, path in trees.items():
            path.mkdir()
            result[side]["path"] = str(path)
        _export(base_commit, trees["base"])
        _copy_worktree(trees["tree"])
        for workload in workloads:
            runs = []
            for k in range(args.pairs):
                pair = {}
                for side in (("base", "tree") if k % 2 == 0
                             else ("tree", "base")):
                    pair[side], record = _run(trees[side], workload,
                                              args.seed, args.seconds)
                    result.setdefault("machine", record["machine"])
                    result.setdefault("versions", record["versions"])
                runs.append(pair)
                print(f"{workload} pair {k}: wall_s "
                      f"{pair['base']['wall_s']:.3f} -> "
                      f"{pair['tree']['wall_s']:.3f}", flush=True)
            result["workloads"][workload] = {
                "metrics": summarise(runs, bench["end_to_end"]),
                "runs": runs,
            }

    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for workload, entry in result["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['base']['median']:.6g} -> "
                  f"{m['tree']['median']:.6g} "
                  f"({100 * (m['median_change'] or 0.0):+.1f} %, tree better "
                  f"in {m['tree_wins']}/{args.pairs}, base IQR "
                  f"[{m['base']['q1']:.6g}, {m['base']['q3']:.6g}])")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
