"""``scripts/solve_identity.py``: its target list and the report digest it
compares between trees."""

import dataclasses
import importlib.util
import pathlib
import sys

import numpy as np

from semitall import solver

_SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(_SCRIPTS))  # the script imports bench_pairs from its own directory
_SPEC = importlib.util.spec_from_file_location("solve_identity", _SCRIPTS / "solve_identity.py")
solve_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(solve_identity)


def test_targets_cover_the_gaussian_formats():
    labels = [label for label, _, _ in solve_identity.targets()]
    assert len(set(labels)) == len(labels) == 92
    gaussian = [label for label in labels if label.startswith("gauss-")]
    assert len(gaussian) == 72
    assert {label.rsplit("-", 1)[0] for label in gaussian} == {f"gauss-{m}x{n}" for m, n in solve_identity.GAUSSIAN}


def test_digest_reads_every_part_of_a_report():
    label, B, seed = next(solve_identity.targets())
    assert label == "gauss-3x3-0"
    report = solver.solve_all(B, seed=seed)
    digest = solve_identity.digest(report)
    assert solve_identity.digest(solver.solve_all(B, seed=seed)) == digest
    last_bit = np.array(report.residuals)
    last_bit[0] = np.nextafter(last_bit[0], np.inf)
    changed = [
        dataclasses.replace(report, residuals=last_bit),
        dataclasses.replace(report, route=solver.NEWTON),
        dataclasses.replace(report, failures=[solver.PathFailureInfo(0, "PATH_STALL")]),
        dataclasses.replace(report, real=~report.real),
    ]
    assert digest not in {solve_identity.digest(r) for r in changed}
