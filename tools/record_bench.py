"""Record the benchmark's end-to-end metrics of a source tree into a BENCH file.

    python3 tools/record_bench.py --label baseline --out BENCH_baseline.json
    python3 tools/record_bench.py --tree ../old-tree --commit 488008d --label baseline --out BENCH_baseline.json
    python3 tools/record_bench.py --label sparse --out BENCH_sparse.json --parent ../parent --parent-commit 88ed201

Runs the tree's own, unmodified ``perfbench/run.py --trace 0`` once per
workload and seed (seeds 1 .. SEEDS, each run as long as the tree's
BENCHMARK.json sets), one process at a time, and writes each metric's median
and quartiles over the seeds, with every run's values, the commit, the
command and a note on the machine.  With ``--parent`` it measures a second
tree in the same session, its runs alternating with the first tree's (the
parent first on odd seeds, the tree first on even ones), and writes that
tree's file beside ``--out``, its name and its label ending in ``_parent``:
the same code read in different sessions has drifted by a fifth, so a
change that claims a speed-up commits such a pair and quotes both.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ring_broadcast", "grid_verify", "block_sweep")
SEEDS = 10


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(cmd)} printed nothing (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values):
    """Median and quartiles (inclusive method) of a metric's values."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def commit_of(tree):
    """The commit checked out in tree; exits when its measured code differs."""
    git = ["git", "-C", str(tree)]
    try:
        dirty = subprocess.run(git + ["status", "--porcelain", "--", "src", "perfbench"],
                               capture_output=True, text=True, check=True).stdout
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        raise SystemExit(f"{tree} is no git checkout: name its commit with --commit")
    if dirty:
        raise SystemExit(f"{tree} has uncommitted changes under src/ or perfbench/: name them with --commit")
    return head.strip()


def machine_note():
    cpu = "unknown cpu"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return (f"{cpu}, {os.cpu_count()} cores, {platform.system()} {platform.release()}, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}; runs one at a time")


def bench_file(label, commit, seconds, runs_by_workload):
    """The BENCH file's contents for one tree's runs."""
    result = {
        "label": label,
        "commit": commit,
        "command": f"python3 perfbench/run.py --workload <w> --seed <1..{SEEDS}> --seconds {seconds:g} --trace 0",
        "machine": machine_note(),
        "workloads": {},
    }
    for workload, runs in runs_by_workload.items():
        names = runs[0]["metrics"]
        result["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                name: {"unit": names[name]["unit"], **summary([r["metrics"][name]["value"] for r in runs])}
                for name in names
            },
        }
        med = {k: v["median"] for k, v in result["workloads"][workload]["metrics"].items()}
        print(label, workload, json.dumps(med), file=sys.stderr)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=".", help="root of the source tree to measure")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--commit", help="what the tree holds, when it is no clean git checkout")
    parser.add_argument("--parent", help="root of a second tree to measure alternately with the first")
    parser.add_argument("--parent-commit", help="what the --parent tree holds, when it is no clean git checkout")
    args = parser.parse_args(argv)
    out = Path(args.out)
    jobs = [(args.label, out, Path(args.tree).resolve(), args.commit)]
    if args.parent:
        parent_out = out.with_name(f"{out.stem}_parent{out.suffix}")
        jobs.insert(0, (args.label + "_parent", parent_out, Path(args.parent).resolve(), args.parent_commit))
    commits = [commit or commit_of(tree) for _, _, tree, commit in jobs]
    seconds = [json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"] for _, _, tree, _ in jobs]
    runs = [{w: [] for w in WORKLOADS} for _ in jobs]
    for workload in WORKLOADS:
        for seed in range(1, SEEDS + 1):
            order = range(len(jobs)) if seed % 2 else reversed(range(len(jobs)))
            for i in order:
                runs[i][workload].append(run_once(jobs[i][2], workload, seed, seconds[i]))
    for (label, out, _, _), commit, secs, tree_runs in zip(jobs, commits, seconds, runs):
        out.write_text(json.dumps(bench_file(label, commit, secs, tree_runs), indent=1) + "\n")


if __name__ == "__main__":
    main()
