"""Certifier benchmark: certificates/s and paths/s per workload, and a
traced run giving per-module numbers.

    python3 perfbench/run.py --workload certify-5x5 [--seed 777] [--seconds 35] [--trace 0|1]
    python3 perfbench/run.py --record    # re-record perfbench/expected.json

Run from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when the correctness
gate fails and 2 when the benchmark cannot run at all.  Input files,
spans and full results go to perfbench/_work/.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "_work")
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "semitall", "__init__.py")):
        print(f"error: no semitall package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if "numpy" in sys.modules:
        print("error: numpy was imported before the BLAS threads were pinned", file=sys.stderr)
        return 2
    # Pin BLAS to one thread before numpy loads: the systems are tiny, and
    # one thread keeps timings and call counts repeatable.
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    import bench
    import semitall
    if os.path.dirname(os.path.abspath(semitall.__file__)) != os.path.join(SRC, "semitall"):
        print(f"error: imported semitall from {semitall.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.record:
        doc = {"seed": bench.DEFAULT_SEED, "workloads": bench.record(WORKDIR)}
        with open(bench.EXPECTED_PATH, "w") as fh:
            fh.write(_expected_text(doc))
        return 0

    if args.workload not in bench.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = bench.DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    env = bench.environment(BLAS_THREADS)
    res = bench.run(args.workload, seed, args.seconds, bool(args.trace), WORKDIR)

    print(f"# {args.workload} seed {seed} seconds {args.seconds:g} trace {args.trace}")
    print("# " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for note in res.notes:
        print(f"# {note}")
    for name, value in res.metrics.items():
        print(f"{name:44s} {value!r:>24} {res.units[name]}")
    for err in res.errors:
        print(f"GATE: {err}", file=sys.stderr)

    os.makedirs(WORKDIR, exist_ok=True)
    stem = os.path.join(WORKDIR, f"{args.workload}-seed{seed}-trace{args.trace}")
    with open(stem + ".result.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": seed, "seconds": args.seconds,
                   "env": env, "notes": res.notes, "errors": res.errors,
                   "metrics": res.metrics,
                   "certificates": [[c.index, c.seconds, c.verdict, c.n_paths, c.paths_failed]
                                    for c in res.certs]}, fh, indent=1)
    if res.spans:
        with open(stem + ".spans.jsonl", "w") as fh:
            for s in res.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.cert, s.counts]) + "\n")

    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": res.units[k]} for k, v in res.metrics.items()},
    }))
    return 0 if res.correct else 1


def _expected_text(doc) -> str:
    # one certificate per line keeps re-recordings reviewable as diffs
    lines = ['{"seed": %d, "workloads": {' % doc["seed"]]
    items = list(doc["workloads"].items())
    for i, (name, rows) in enumerate(items):
        body = ",\n".join("  " + json.dumps(r) for r in rows)
        lines.append(f' "{name}": [\n{body}\n ]' + ("," if i < len(items) - 1 else ""))
    lines.append("}}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
