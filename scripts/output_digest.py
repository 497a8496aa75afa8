#!/usr/bin/env python3
"""Digest of the CLI output on a fixed command list.

Writes two Gaussian tensor files (t55.json, t33.json) into the output
directory, runs eleven subcommands through ``cli.dispatch`` from there,
drops the ``elapsed_s`` lines and prints the first 16 hex digits of the
sha256 of each output.  The outputs are kept in the directory (one
numbered ``.out`` file per command), so a later run can be compared with
this one:

    python scripts/output_digest.py --out before
    python scripts/output_digest.py --out after --against before

With ``--against DIR`` each command is reported as identical to the saved
run, or with its largest numeric difference, relative to
max(|x|, |y|, 1), and its first non-numeric difference.  Numbers are
compared by value, since the report writer prints 1.0 as ``1``.  The
script then exits 1 unless every command is identical.

Run from the repository root with ``PYTHONPATH=src``.
"""

import argparse
import hashlib
import os
import re
import sys
import tempfile

import numpy as np

from semitall import cli, tensorcore

COMMANDS = [
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

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


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
        texts = []
        for k, command in enumerate(COMMANDS):
            text = output(command)
            with open(f"{k:02d}.out", "w") as fh:
                fh.write(text)
            texts.append(text)
        return texts
    finally:
        os.chdir(here)


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
    unless every output is identical to the saved run's."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="directory for the inputs and outputs (default: a new temporary one)")
    parser.add_argument("--against", help="directory of a saved run to compare with")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out or tempfile.mkdtemp(prefix="digest-"))
    texts = run_all(out)
    print(f"# outputs in {out}")
    differ = 0
    for k, (command, text) in enumerate(zip(COMMANDS, texts)):
        line = f"{digest(text)}  {command}"
        if args.against:
            with open(os.path.join(args.against, f"{k:02d}.out")) as fh:
                verdict = compare(fh.read(), text)
            differ += verdict != "identical"
            line += f"  [{verdict}]"
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
