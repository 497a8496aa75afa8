"""Acceptance suite: one test per criterion, each printing its pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the same checks back the ``semitall-rank selftest`` subcommand.
"""

import dataclasses

import numpy as np
import pytest

from semitall import acceptance, polyfactor, solver, tensorcore
from solver_helpers import tracker_only


def _run(index):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acceptance, "CRITERIA", [c for c in acceptance.CRITERIA if c[0] == index])
        results = acceptance.run_acceptance()
    assert len(results) == 1
    r = results[0]
    print(r.line())
    assert r.passed, r.detail
    return r


def test_criterion_01_alpha_oracle_equivalence():
    _run(1)


def test_criterion_02_alpha_case_list():
    _run(2)


def test_criterion_03_classifier_case_list():
    _run(3)


def test_criterion_04_rank_condition_equivalence():
    _run(4)


def test_criterion_05_chart_round_trips():
    _run(5)


def test_criterion_06_start_systems():
    _run(6)


def test_criterion_07_homotopy_real_count_stability():
    _run(7)


def test_criterion_08_certifier_negative_control():
    _run(8)


def test_criterion_09_certifier_positive_control():
    _run(9)


def test_criterion_10_plurality_evidence():
    _run(10)


class TestHarness:
    def test_runs_all_by_default(self):
        names = [name for (_, name, _, _) in acceptance.CRITERIA]
        assert len(names) == 10
        assert len(set(names)) == 10

    def test_corrupted_base_tensor_breaks_start_residuals(self, monkeypatch):
        # mutation sanity: flipping one sign in the base tensor must surface
        # in the start-system residual check
        original = tensorcore.make_base_tensor

        def corrupted(m, n):
            T = original(m, n)
            data = T.data.copy()
            data[0, n - 1, m - 1] = +1.0
            return tensorcore.Tensor3(data)

        # the solver builds each format's start system once per process:
        # drop the cached, correct systems, and the corrupted ones after
        solver._start_system.cache_clear()
        monkeypatch.setattr(tensorcore, "make_base_tensor", corrupted)
        try:
            passed, detail = acceptance.criterion_6_start_systems()
        finally:
            monkeypatch.undo()
            solver._start_system.cache_clear()
        assert not passed

    def test_criterion_7_sees_a_closure_break(self, monkeypatch):
        # moving one non-real endpoint of the first solve by 1e-2 keeps the
        # endpoint count and their separation, but leaves that endpoint and
        # its conjugate partner each without a partner
        solve_all, first = solver.solve_all, []

        def moved(*args, **kwargs):
            report = solve_all(*args, **kwargs)
            if not first:
                first.append(int(np.flatnonzero(~report.real)[0]))
                solutions = report.solutions.copy()
                solutions[first[0], 0] += 1e-2
                report = dataclasses.replace(report, solutions=solutions)
            return report

        monkeypatch.setattr(solver, "solve_all", moved)
        passed, detail = acceptance.criterion_7_homotopy_stability()
        assert not passed
        assert detail.startswith("(3,3) trial 0: path ")
        assert detail.count("no conjugate endpoint within 1e-06") == 2

    @pytest.mark.parametrize("m,n", acceptance.CRITERION_7_FORMATS)
    def test_criterion_7_targets_also_track(self, m, n, monkeypatch):
        # solve_all takes the Newton route on criterion 7's targets, so the
        # first target per format is also tracked: the tracked endpoints pass
        # the criterion's checks and are the route's endpoints
        frame = tensorcore.make_start_frame(m, n)
        rng = np.random.default_rng((707, m, n, 0))
        target = tensorcore.Tensor3(frame.Aprime.data + 1e-3 * rng.standard_normal(frame.Aprime.shape))
        report = solver.solve_all(target, seed=(707, m, n, 0))
        assert report.route == solver.NEWTON
        tracked = tracker_only(monkeypatch, target, (707, m, n, 0))
        assert tracked.complete and not tracked.closure
        assert len(tracked.solutions) == report.n_paths
        assert tracked.real_count == polyfactor.alpha_closed(m, n)
        i, j = solver.close_pairs(report.solutions, tracked.solutions)
        assert sorted(i.tolist()) == sorted(j.tolist()) == list(range(report.n_paths))

    def test_failing_criterion_is_named_by_its_index(self, monkeypatch):
        # a failing criterion is reported under its own index and name, with
        # its detail, beside a passing one
        def passing():
            return True, "ok"

        def failing():
            return False, "broken on purpose"

        criteria = [(index, name, budget, failing if index == 9 else passing)
                    for index, name, budget, _ in acceptance.CRITERIA if index in (8, 9)]
        monkeypatch.setattr(acceptance, "CRITERIA", criteria)
        results = acceptance.run_acceptance()
        assert [(r.index, r.name, r.passed) for r in results] == [
            (8, "certifier-negative-control", True),
            (9, "certifier-positive-control", False),
        ]
        assert results[1].detail == "broken on purpose"
        assert results[1].line().startswith("criterion 09 certifier-positive-control: FAIL")
