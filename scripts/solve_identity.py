#!/usr/bin/env python3
"""Bit identity of ``solver.solve_all`` reports between two trees.

Without ``--against`` the script solves a fixed list of targets, each at its
own seed, with the ``semitall`` package on the import path, and prints one
line per target: its label, the report's route and the first 16 hex digits
of the sha256 of the report (route, gamma, failures, and the bytes of the
solutions, residuals, real flags and path indices).  The targets are

- 12 Gaussian targets each at (3,3), (3,4), (4,4), (3,5), (4,5) and (5,5),
- 10 near-start targets A' + 1e-3 R each at (3,5) and (4,5).

With ``--against REV`` it exports commit REV (``git archive``) into a
temporary directory, prints those lines for REV's ``src`` and for the
working tree's, each in its own process with BLAS at one thread, and names
every target whose digest differs.  The exit code is 1 unless all agree.

    PYTHONPATH=src python scripts/solve_identity.py --against HEAD

Run from the repository root.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from bench_pairs import ROOT, export

GAUSSIAN = ((3, 3), (3, 4), (4, 4), (3, 5), (4, 5), (5, 5))
NEAR_START = ((3, 5), (4, 5))


def targets():
    """(label, target tensor, seed) of every solve, in order."""
    from semitall import tensorcore

    for m, n in GAUSSIAN:
        u = m + n - 2
        for k in range(12):
            B = np.random.default_rng((31, m, n, k)).standard_normal((u, n, m))
            yield f"gauss-{m}x{n}-{k}", tensorcore.Tensor3(B), (32, m, n, k)
    for m, n in NEAR_START:
        Aprime = tensorcore.make_start_frame(m, n).Aprime.data
        for k in range(10):
            R = np.random.default_rng((33, m, n, k)).standard_normal(Aprime.shape)
            yield f"near-{m}x{n}-{k}", tensorcore.Tensor3(Aprime + 1e-3 * R), (34, m, n, k)


def digest(report) -> str:
    """The first 16 hex digits of the sha256 of one report."""
    h = hashlib.sha256(repr((report.route, report.gamma, [(f.index, f.reason, f.detail) for f in report.failures]))
                       .encode())
    for arr in (report.solutions, report.residuals, report.real, report.path_index):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def lines() -> list[str]:
    """One ``label route digest`` line per target."""
    from semitall import solver

    out = []
    for label, B, seed in targets():
        report = solver.solve_all(B, seed=seed)
        out.append(f"{label} {report.route} {digest(report)}")
    return out


def run_in(tree: str) -> list[str]:
    """The lines of this script run in a new process on ``tree``'s package."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env, check=True, capture_output=True,
                          text=True)
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", help="the commit whose reports the working tree's are compared with")
    args = ap.parse_args(argv)
    if not args.against:
        print("\n".join(lines()))
        return 0
    tmp = tempfile.mkdtemp(prefix="solve-identity-")
    try:
        commit = export(args.against, tmp)
        old, new = run_in(tmp), run_in(ROOT)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    differ = 0
    for a, b in zip(old, new, strict=True):
        label, route_a, digest_a = a.split()
        _, route_b, digest_b = b.split()
        same = digest_a == digest_b
        differ += not same
        print(f"{label}: {route_a} -> {route_b} [{'identical' if same else 'DIFFERS'}]")
    print(f"{len(old) - differ} of {len(old)} reports identical to {commit[:12]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
