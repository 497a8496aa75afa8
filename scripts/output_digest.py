#!/usr/bin/env python3
"""Digest of the CLI output on a fixed command list.

Writes the input tensor files into the output directory (``--out``, or a
temporary one removed on exit), runs every
command of ``COMMANDS`` (eleven recorded commands, and one ``solve`` of
each of 92 Gaussian and near-start targets) through ``cli.dispatch`` from
there, keeps each output without its ``elapsed_s`` lines as a numbered
``.out`` file and prints the first 16 hex digits of its sha256.  ``solve``
prints every float at 17 significant digits, and the route, gamma, real
flags, path indices and failures, so identical text is an identical report.

With ``--against REV`` it runs the list on commit REV's package (exported
by ``git archive``) and on the working tree's, each in a new process with
BLAS at one thread, and reports each output as identical to REV's, or with
its largest numeric difference, relative to max(|x|, |y|, 1), and its first
non-numeric difference.  Numbers are compared by value, since the report
writer prints 1.0 as ``1``.  The exit code is 1 unless all are identical.

    PYTHONPATH=src python scripts/output_digest.py --against HEAD

Run from the repository root.
"""

import argparse
import hashlib
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np

from bench_pairs import ROOT, export
from semitall import cli, tensorcore

RECORDED = [
    "alpha --m 5 --n 27",
    "divisors --m 3 --n 3",
    "classify --m 7 --n 16",
    "table --m 9 --n 40 --format csv",
    "solve --m 3 --n 4 --eps 1e-3 --seed 7",
    "solve --m 4 --n 5 --eps 1e-2 --seed 3",
    "solve --m 3 --n 3 --eps 1e-3 --seed 2 --format plain",
    "certify --input t55.json --seed 1",
    "certify --input t33.json --seed 4",
    "experiment global --m 3 --n 3 --trials 20 --seed 5",
    "experiment perturb --m 3 --n 5 --eps 0.01 --trials 10 --seed 2",
]
GAUSSIAN = ((3, 3), (3, 4), (4, 4), (3, 5), (4, 5), (5, 5))
NEAR_START = ((3, 5), (4, 5))
# (kind, m, n, k) of every solve target, 12 Gaussian and 10 A' + 1e-3 R per format
TARGETS = [("gauss", m, n, k) for m, n in GAUSSIAN for k in range(12)]
TARGETS += [("near", m, n, k) for m, n in NEAR_START for k in range(10)]
SEED = {"gauss": 3200, "near": 3400}
COMMANDS = RECORDED + [
    f"solve --input {kind}-{m}x{n}-{k}.json --seed {SEED[kind] + 100 * m + 10 * n + k}" for kind, m, n, k in TARGETS
]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def target(kind: str, m: int, n: int, k: int) -> tensorcore.Tensor3:
    """Solve target k of its kind and format: Gaussian, or A' + 1e-3 R."""
    if kind == "gauss":
        return tensorcore.Tensor3(np.random.default_rng((31, m, n, k)).standard_normal((m + n - 2, n, m)))
    Aprime = tensorcore.make_start_frame(m, n).Aprime.data
    return tensorcore.Tensor3(Aprime + 1e-3 * np.random.default_rng((33, m, n, k)).standard_normal(Aprime.shape))


def output(command: str) -> str:
    """The output of one command, ``elapsed_s`` lines dropped."""
    _, text = cli.dispatch(command.split())
    return "".join(line for line in text.splitlines(keepends=True) if "elapsed_s" not in line)


def digest(text: str) -> str:
    """The first 16 hex digits of the sha256 of an output."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_all(out: str) -> list[str]:
    """Outputs of every command, ``elapsed_s`` lines dropped, each also
    written to ``out``."""
    os.makedirs(out, exist_ok=True)
    here = os.getcwd()
    os.chdir(out)
    try:
        tensorcore.save_tensor(tensorcore.Tensor3(np.random.default_rng(5).standard_normal((5, 17, 5))), "t55.json")
        tensorcore.save_tensor(tensorcore.Tensor3(np.random.default_rng(3).standard_normal((3, 5, 3))), "t33.json")
        for kind, m, n, k in TARGETS:
            tensorcore.save_tensor(target(kind, m, n, k), f"{kind}-{m}x{n}-{k}.json")
        texts = []
        for k, command in enumerate(COMMANDS):
            text = output(command)
            with open(f"{k:03d}.out", "w") as fh:
                fh.write(text)
            texts.append(text)
        return texts
    finally:
        os.chdir(here)


def run_in(tree: str, out: str) -> list[str]:
    """The outputs of this script run into ``out`` in a new process on
    ``tree``'s package, with BLAS at one thread."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--out", out]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} on {tree} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return [pathlib.Path(out, f"{k:03d}.out").read_text() for k in range(len(COMMANDS))]


def compare(old: str, new: str) -> str:
    """'identical', or the largest numeric and the first non-numeric
    difference, line by line."""
    if old == new:
        return "identical"
    a, b = old.splitlines(), new.splitlines()
    if len(a) != len(b):
        return f"{len(a)} lines against {len(b)}"
    worst, where, other = 0.0, None, None
    for i, (x, y) in enumerate(zip(a, b), 1):
        if NUMBER.sub("#", x) != NUMBER.sub("#", y):
            other = other or f"line {i}: {x.strip()!r} against {y.strip()!r}"
            continue
        for u, v in zip(map(float, NUMBER.findall(x)), map(float, NUMBER.findall(y))):
            rel = abs(u - v) / max(abs(u), abs(v), 1.0)
            if rel > worst:
                worst, where = rel, i
    text = f"numbers differ by at most {worst:.2e} (line {where})" if where else "numbers equal"
    return text + (f"; non-numeric: {other}" if other else "; non-numeric parts equal")


def main(argv: list[str] | None = None) -> int:
    """Run every command and print its digest; with ``--against``, return 1
    unless every output is identical to REV's."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="directory for the inputs and outputs (default: a temporary one, "
                                      "removed on exit)")
    parser.add_argument("--against", help="the commit REV whose outputs the working tree's are compared with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        out = os.path.abspath(args.out or os.path.join(tmp, "out"))
        if args.against:
            rev = os.path.join(tmp, "rev")
            commit = export(args.against, rev)
            old, texts = run_in(rev, os.path.join(rev, "digest-out")), run_in(ROOT, out)
        else:
            texts = run_all(out)
    if args.out:
        print(f"# outputs in {out}")
    differ = 0
    for k, (command, text) in enumerate(zip(COMMANDS, texts)):
        line = f"{digest(text)}  {command}"
        if args.against:
            verdict = compare(old[k], text)
            differ += verdict != "identical"
            line += f"  [{verdict}]"
        print(line)
    if args.against:
        print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} outputs identical to {commit[:12]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
