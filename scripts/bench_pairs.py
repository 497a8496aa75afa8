#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent commit against the working tree.

Exports the parent commit's files (``git archive``) into a temporary
directory, then runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

from the root of each tree, N pairs per workload and seed, the parent first
in odd pairs and the working tree first in even pairs.  T is the run length
the benchmark fixes, ``run_seconds`` in BENCHMARK.json.  The runs, and per
end-to-end metric of BENCHMARK.json each side's median and quartiles, the
change's wins and losses and its relative worsening, go to a benchmark
record (``BENCH_*.json``, the shape ``tests/test_bench_records.py`` pins),
with each run's certificate count (``attempted``), against which
``peak_rss_mb`` is read.  Entries already in the record at ``--out`` are
kept unless this run measures the same workload and seed.  The temporary
directory is removed on exit, also on failure.

    python scripts/bench_pairs.py --out BENCH_prN.json --change "what changed" \\
        --workload mc-perturb-3x5 --seed 777 --pairs 10

Run from the repository root.  The exit code is 1 when any run's
correctness gate failed, else 0.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
HOW_READ = (
    "median and quartiles of each side's runs; change_wins counts pairs where the change reads better "
    "(ties count for neither); relative_worsening > 0 means the change's median is worse by that fraction; "
    "attempted is each run's certificate count, in run order"
)


def export(rev: str, into: str) -> str:
    """The files of commit ``rev`` written under ``into``; returns its full id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def run_once(tree: str, workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    """One untraced benchmark run of ``seconds`` from the root of ``tree``:
    its closing JSON object and its environment line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    doc = json.loads(lines[-1])
    doc["exit"] = proc.returncode
    return doc, lines[1].lstrip("# ")


def summary(runs: dict, better: str, bound: float) -> dict:
    """Medians, quartiles, wins and relative worsening of one metric's paired runs."""
    parent, change = (np.array(runs[side], dtype=float) for side in SIDES)
    quart = {side: dict(zip(("q1", "median", "q3"), np.percentile(runs[side], [25, 50, 75]).tolist()))
             for side in SIDES}
    sign = {"higher": 1, "lower": -1}[better]
    gain = sign * (change - parent)
    pm, cm = quart["parent"]["median"], quart["change"]["median"]
    return {
        "better": better,
        "parent": quart["parent"],
        "change": quart["change"],
        "ratio": cm / pm if pm else None,
        "change_wins": int(np.sum(gain > 0)),
        "change_losses": int(np.sum(gain < 0)),
        "parent_iqr": quart["parent"]["q3"] - quart["parent"]["q1"],
        "relative_worsening": -sign * (cm - pm) / pm if pm else None,
        "bound": bound,
        "runs": {side: list(runs[side]) for side in SIDES},
    }


def measure(trees: dict, workload: str, seed: int, pairs: int, seconds: int, metrics: list) -> tuple[dict, str]:
    """``pairs`` alternating pairs of runs of one workload and seed."""
    runs = {side: [] for side in SIDES}
    host = ""
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            doc, host = run_once(trees[side], workload, seed, seconds)
            runs[side].append(doc)
            print(f"{workload} seed {seed} pair {k + 1}/{pairs} {side}: exit {doc['exit']}, "
                  f"attempted {doc['attempted']}, certs_per_s {doc['metrics']['certs_per_s']['value']:.1f}, "
                  f"peak_rss_mb {doc['metrics']['peak_rss_mb']['value']:.2f}", flush=True)
    entry = {
        "pairs": pairs,
        "first_side": "parent first in odd pairs, change first in even pairs",
        "all_correct": all(d["correct"] for side in SIDES for d in runs[side]),
        "exit": {side: [d["exit"] for d in runs[side]] for side in SIDES},
        "failed": {side: [d["failed"] for d in runs[side]] for side in SIDES},
        "attempted": {side: [d["attempted"] for d in runs[side]] for side in SIDES},
        "metrics": {
            m["name"]: summary({side: [d["metrics"][m["name"]]["value"] for d in runs[side]] for side in SIDES},
                               m["better"], m["bound"])
            for m in metrics
        },
    }
    return entry, host


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the benchmark record to write (entries already in it are kept)")
    ap.add_argument("--change", help="what the working tree changes (kept from --out when omitted)")
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against (default HEAD)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        protocol = json.load(fh)
    seconds, metrics = protocol["run_seconds"], protocol["end_to_end"]
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    if not (args.change or doc.get("change")):
        ap.error("--change is required for a new record")

    tmp = tempfile.mkdtemp(prefix="bench-parent-")
    try:
        parent = export(args.parent, tmp)
        if doc.get("parent", parent) != parent:
            ap.error(f"{args.out} compares against {doc['parent']}, not {parent}")
        trees = {"parent": tmp, "change": ROOT}
        workloads = doc.get("workloads", {})
        host = doc.get("host", "")
        for workload in args.workload:
            for seed in args.seed:
                entry, env = measure(trees, workload, seed, args.pairs, seconds, metrics)
                workloads.setdefault(workload, {})[str(seed)] = entry
                host = host or env
        doc.update({
            "change": args.change or doc["change"],
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0, "
                       "run from the root of each tree",
            "parent": parent,
            "host": host,
            "how_read": HOW_READ,
            "workloads": workloads,
        })
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    correct = all(e["all_correct"] for seeds in doc["workloads"].values() for e in seeds.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
