import dataclasses
import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from semitall import acceptance, certifier, polyfactor, solver, tensorcore
from semitall.errors import (
    AT_INFINITY,
    CHART_ESCAPE,
    PATH_STALL,
    WARN_MULTIPLICITY,
    DegenerateStartError,
    ResourceLimitError,
)
from semitall.solver import SolveReport, projectively_real, solve_all, start_solutions, track_path
from solver_helpers import tracker_only


def perturbed_target(m, n, eps, seed):
    frame = tensorcore.make_start_frame(m, n)
    rng = np.random.default_rng(seed)
    return frame, tensorcore.Tensor3(frame.Aprime.data + eps * rng.standard_normal(frame.Aprime.shape))


def retried_target():
    # a (3,3) target whose slice 0 nearly kills v: at seed 1 one path runs
    # off to infinity on a_m = -1 and is retried on a complex chart
    rng = np.random.default_rng((29, 3, 3, 1))
    data = rng.standard_normal((4, 3, 3))
    v = rng.standard_normal(3)
    data[:, :, 0] -= (1 - 1e-8) * np.outer(data[:, :, 0] @ v, v) / (v @ v)
    return tensorcore.Tensor3(data)


def endpoint_residual(B, z, m):
    # 2-norm of M(a, B) b at one row z = (a, b)
    return solver._residuals(B, z[None, :m], z[None, m:], solver._unit_shift(B.data))[0]


def full_system(B_from, B_to, gamma, c, z, t):
    # the tracked system in all m+n coordinates of the rows z = (a, b) at
    # their own t, entry by entry with both chart rows, a_m = -1 and
    # c . b = 1: the Jacobians, the residuals and their t-derivatives
    u, n, m = B_from.shape
    P, a, b = len(z), z[:, :m], z[:, m:]
    dB = B_to - gamma * B_from
    Bt = gamma * B_from[None] + t[:, None, None, None] * dB[None]
    charts = np.zeros((2, m + n))
    charts[0, m - 1], charts[1, m:] = 1.0, c
    J = np.concatenate([
        np.concatenate([np.einsum("pijk,pj->pik", Bt, b), np.einsum("pijk,pk->pij", Bt, a)], axis=2),
        np.broadcast_to(charts, (P, 2, m + n)),
    ], axis=1)
    F = np.concatenate([np.einsum("pijk,pj,pk->pi", Bt, b, a), a[:, -1:] + 1, b @ c[:, None] - 1], axis=1)
    dF = np.concatenate([np.einsum("ijk,pj,pk->pi", dB, b, a), np.zeros((P, 2))], axis=1)
    return J, F, dF


class TestStartSolutions:
    @pytest.mark.parametrize("m,n,paths,nreal", [(3, 3, 6, 2), (3, 4, 10, 2), (4, 4, 20, 0)])
    def test_counts_and_reality(self, m, n, paths, nreal):
        report = start_solutions(m, n, seed=(1, m, n))
        assert len(report.solutions) == report.n_paths == paths
        assert report.real_count == nreal
        assert nreal == polyfactor.alpha_closed(m, n)

    def test_residuals_tiny(self):
        for m, n in [(3, 3), (3, 5), (4, 5)]:
            assert start_solutions(m, n, seed=2).residuals.max() < 1e-10

    @pytest.mark.parametrize("m,n", acceptance.CRITERION_6_FORMATS)
    def test_real_rows_are_the_divisor_table(self, m, n):
        # the real start rows are the real divisor points, slice-reordered
        # and scaled onto a_m = -1, in closed_selections order
        u = m + n - 2
        report = start_solutions(m, n, seed=(8, m, n))
        z, real, subsets = report.solutions, report.real, solver._start_system(m, n).subsets
        x = polyfactor.divisor_points(polyfactor.real_divisors(u, m - 1))
        xprime = np.stack([sign * x[:, src] for src, sign in tensorcore.slice_reorder(m)], axis=1)
        expected = xprime / -xprime[:, -1:]
        assert [s for s, r in zip(subsets, real) if r] == polyfactor.closed_selections(u, m - 1)
        assert z[real, :m].shape == expected.shape == (polyfactor.alpha_closed(m, n), m)
        assert np.max(np.abs(z[real, :m] - expected), initial=0.0) < 1e-12

    @pytest.mark.parametrize("m,n", [(3, 5), (4, 5), (5, 5), (4, 12)])
    def test_a_rows_match_per_subset_loop(self, m, n):
        # reference: one subset at a time, as the start system was built
        # before it was stacked; the arithmetic is the same, so are the bits
        u = m + n - 2
        start = solver._start_system(m, n)
        a_rows, subsets = start.a_rows, start.subsets
        real = start_solutions(m, n).real
        roots = polyfactor.neg_roots(u)
        for idx, subset in enumerate(subsets):
            coeffs = polyfactor._expand_from_roots(roots[list(subset)])
            x = np.append(-coeffs[: m - 1], -1.0 + 0.0j)
            xprime = np.array([sign * x[src] for (src, sign) in tensorcore.slice_reorder(m)])
            a = (-1.0 / xprime[-1]) * xprime
            a[-1] = -1.0 + 0.0j
            assert np.array_equal(a_rows[idx], a), subset
            assert real[idx] == all((u - 1 - k) in subset for k in subset), subset

    @pytest.mark.parametrize("m,n", [(3, 5), (4, 5), (5, 5), (4, 12)])
    def test_kernels_are_the_svd_null_vectors(self, m, n):
        # oracle: the last right singular vector of each start pencil; the
        # closed-form cofactor rows must span the same one-dimensional kernel
        start = solver._start_system(m, n)
        frame, a_rows, kernels = start.frame, start.a_rows, start.kernels
        pencils = tensorcore.pencil_eval(a_rows, frame.Aprime)
        _, svals, Vh = np.linalg.svd(pencils)
        assert np.max(np.abs(np.linalg.norm(kernels, axis=1) - 1.0)) < 1e-15
        assert np.abs(np.sum(Vh[:, -1] * kernels, axis=1)).min() >= 1 - 1e-14
        assert np.linalg.norm((pencils @ kernels[..., None])[..., 0], axis=1).max() <= 1e-13
        # the kernel is one-dimensional, with room to spare
        assert (svals[:, -2] / svals[:, 0]).min() >= 1e-3

    def test_cached_frame_is_read_only(self):
        # callers outside the solver share the cached frame
        frame = solver._start_system(3, 3).frame
        for arr in (frame.Aprime.data, frame.W0):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0

    def test_start_system_is_read_by_name(self):
        # a frozen record: no read by position, no field reassigned
        start = solver._start_system(3, 5)
        with pytest.raises(TypeError):
            start[0]
        with pytest.raises(TypeError):
            frame, *rest = start
        with pytest.raises(dataclasses.FrozenInstanceError):
            start.frame = None

    def test_chart_orthogonal_to_a_kernel_names_its_subset(self, monkeypatch):
        kernels = solver._start_system(3, 3).kernels
        c = np.array([kernels[0, 1], -kernels[0, 0], 0.0])  # kernels[0] @ c == 0
        monkeypatch.setattr(solver, "_draws", lambda n, rng: (c, 1.0 + 0.0j))
        with pytest.raises(DegenerateStartError, match=r"^chart vector nearly orthogonal to the kernel at \(0, 1\)$"):
            start_solutions(3, 3)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 5)])
    @pytest.mark.parametrize("seed", [7, (2, 9)], ids=repr)
    def test_rows_are_the_starts_solve_all_tracks(self, m, n, seed, monkeypatch):
        # the chart is the one solve_all draws first from the same seed, and
        # row k is the row solve_all tracks as path k; at eps 1 the Newton
        # route's pre-test declines, so the rows are tracked
        tracked = []
        run = solver._Lockstep.run
        monkeypatch.setattr(solver._Lockstep, "run", lambda self, z0: tracked.append(z0.copy()) or run(self, z0))
        _, target = perturbed_target(m, n, 1.0, seed=(60, m, n))
        report = solve_all(target, seed=seed)
        start = start_solutions(m, n, seed=seed)
        assert (report.route, start.route) == (solver.TRACKED, solver.START)
        assert np.array_equal(start.chart_b, report.chart_b)
        assert start.n_paths == report.n_paths and start.path_index.tolist() == list(range(start.n_paths))
        assert start.solutions.tobytes() == tracked[0].tobytes()

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 5)])
    def test_rows_are_the_starts_the_newton_route_takes(self, m, n, monkeypatch):
        started = []
        newton = solver._Lockstep.newton
        monkeypatch.setattr(solver._Lockstep, "newton", lambda self, z0: started.append(z0.copy()) or newton(self, z0))
        _, target = perturbed_target(m, n, 1e-3, seed=(60, m, n))
        report = solve_all(target, seed=7)
        assert report.route == solver.NEWTON
        # the real starts' real parts, then the lower row of each conjugate pair
        z, start = start_solutions(m, n, seed=7).solutions, solver._start_system(m, n)
        assert np.concatenate([z[start.fixed].real, z[start.rep]]).tobytes() == started[0].tobytes()

    @pytest.mark.parametrize("seed", [None, 1.5, "x"], ids=repr)
    def test_seed_outside_documented_types_refused(self, seed):
        # None would draw a fresh chart vector on every call
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer"):
            start_solutions(3, 3, seed=seed)

    def test_chart_conventions(self):
        z, subsets = start_solutions(3, 4, seed=3).solutions, solver._start_system(3, 4).subsets
        assert len(subsets) == len(z)
        for row, subset in zip(z, subsets):
            assert row[2] == -1.0 + 0.0j
            assert isinstance(subset, tuple) and len(subset) == 2

    def test_real_flags_match_the_closed_subsets(self):
        # the audit's numeric flags against the combinatorial oracle, on
        # every format with at most 1,000 start rows; the real rows are real
        # to 1e-8 as well, 100 times below REALITY_TOL
        formats = [(m, n) for m in range(3, 8) for n in range(m, 45) if math.comb(m + n - 2, m - 1) <= 1000]
        assert len(formats) == 66
        for m, n in formats:
            report = start_solutions(m, n, seed=(4, m, n))
            z, real, subsets = report.solutions, report.real, solver._start_system(m, n).subsets
            closed_set = set(polyfactor.closed_selections(m + n - 2, m - 1))
            closed = np.array([s in closed_set for s in subsets])
            assert np.array_equal(real, closed), (m, n)
            assert np.array_equal(projectively_real(z[:, :m], z[:, m:], 1e-8), closed), (m, n)
            assert real.sum() == polyfactor.alpha_closed(m, n), (m, n)

    def test_partner_is_the_conjugate_start(self):
        # on every format with at most 2,000 start rows the partner map is an
        # involution whose fixed points are the closed subsets, alpha of them,
        # and each partner's start row (a, b) is its row's conjugate
        formats = [(m, n) for m in range(3, 9) for n in range(m, 70) if math.comb(m + n - 2, m - 1) <= 2000]
        assert len(formats) == 93
        for m, n in formats:
            start = solver._start_system(m, n)
            k = np.arange(len(start.subsets))
            closed_set = set(polyfactor.closed_selections(m + n - 2, m - 1))
            closed = np.array([s in closed_set for s in start.subsets])
            assert np.array_equal(start.partner[start.partner], k), (m, n)
            assert np.array_equal(start.partner == k, closed), (m, n)
            assert len(start.fixed) == polyfactor.alpha_closed(m, n), (m, n)
            assert start.fixed.tolist() == np.flatnonzero(closed).tolist(), (m, n)
            assert start.rep.tolist() == np.flatnonzero(start.partner > k).tolist(), (m, n)
            rows = np.concatenate([start.a_rows, start.kernels], axis=1)
            assert np.abs(rows[start.partner] - rows.conj()).max() < 1e-10, (m, n)

    def test_colliding_start_rows_are_refused(self, monkeypatch):
        # start rows that fail the endpoint audit are no start system
        monkeypatch.setattr(solver, "DEDUP_TOL", 1e3)
        with pytest.raises(DegenerateStartError, match=r"^start row 1: WARN_MULTIPLICITY, endpoint within 1000 of path 0$"):
            start_solutions(3, 3)

    def test_mutating_a_start_solution_leaves_the_next_call(self):
        fields = ("solutions", "residuals", "real", "path_index", "chart_b")
        first = start_solutions(3, 4, seed=3)
        kept = [getattr(first, name).copy() for name in fields]
        for name in fields:
            with pytest.raises(ValueError, match="read-only"):
                getattr(first, name)[0] = 7
        again = start_solutions(3, 4, seed=3)
        for name, before in zip(fields, kept):
            assert np.array_equal(getattr(again, name), before), name

    @pytest.mark.parametrize("m,n", [(3, 3), (5, 5), (4, 20), (6, 10)])
    def test_start_rows_rescale_by_a_unit_coefficient(self, m, n):
        # a start row is rescaled onto a_m = -1 by the constant coefficient
        # of its monic divisor of y^u + 1, a product of unit roots
        u = m + n - 2
        subsets = solver._start_system(m, n).subsets
        c0 = polyfactor.divisor_coefficients(u, subsets)[:, 0]
        assert np.max(np.abs(np.abs(c0) - 1.0)) < 1e-14

    def test_path_budget(self):
        # C(28, 14) is far beyond the path budget
        with pytest.raises(ResourceLimitError):
            start_solutions(15, 15)


class TestTrackPath:
    def test_identity_path_returns_start(self):
        frame = tensorcore.make_start_frame(3, 3)
        start = start_solutions(3, 3, seed=5)
        z0, c = start.solutions[0], start.chart_b
        out = track_path(frame.Aprime, frame.Aprime, z0, 1.0 + 0.0j, c).solutions[0]
        assert np.max(np.abs(out[:3] - z0[:3])) < 1e-8
        assert np.max(np.abs(out[3:] - z0[3:])) < 1e-8
        assert endpoint_residual(frame.Aprime, out, 3) < 1e-10

    def test_small_perturbation_endpoints(self):
        frame, target = perturbed_target(3, 3, 1e-3, seed=6)
        start = start_solutions(3, 3, seed=6)
        c = start.chart_b
        for z0 in start.solutions:
            out = track_path(frame.Aprime, target, z0, complex(0.28, 0.96), c=c).solutions[0]
            assert endpoint_residual(target, out, 3) < 1e-9
            # endpoint stays near its start for a small perturbation
            assert np.max(np.abs(out[:3] - z0[:3])) < 0.1

    def test_shape_mismatch(self):
        frame = tensorcore.make_start_frame(3, 3)
        other = tensorcore.make_start_frame(3, 4)
        start = start_solutions(3, 3, seed=1)
        z0, c = start.solutions[0], start.chart_b
        with pytest.raises(ValueError):
            track_path(frame.Aprime, other.Aprime, z0, 1.0 + 0.0j, c)

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=repr)
    def test_non_finite_target_refused(self, value, monkeypatch):
        # solve_all and track_path share one check, made before any path runs
        frame = tensorcore.make_start_frame(3, 3)
        data = frame.Aprime.data.copy()
        data[1, 2, 0] = value
        target = tensorcore.Tensor3(data)
        start = start_solutions(3, 3, seed=1)
        monkeypatch.setattr(solver._Lockstep, "_batches", lambda *args: pytest.fail("a path ran"))
        refused = r"^target tensor has 1 non-finite entries$"
        with pytest.raises(ValueError, match=refused):
            solve_all(target, seed=1)
        with pytest.raises(ValueError, match=refused):
            track_path(frame.Aprime, target, start.solutions[0], start.gamma, start.chart_b)

    def test_gamma_required(self):
        # gamma is a required argument, and the tracker refuses a zero one
        frame = tensorcore.make_start_frame(3, 3)
        start = start_solutions(3, 3, seed=1)
        z0, c = start.solutions[0], start.chart_b
        with pytest.raises(TypeError):
            track_path(frame.Aprime, frame.Aprime, z0, c=c)
        with pytest.raises(ValueError, match="gamma must be nonzero"):
            track_path(frame.Aprime, frame.Aprime, z0, 0.0 + 0.0j, c)

    def test_chart_required(self):
        # the b chart is the caller's: no default is rebuilt from z0
        frame = tensorcore.make_start_frame(3, 3)
        z0 = start_solutions(3, 3, seed=1).solutions[0]
        with pytest.raises(TypeError):
            track_path(frame.Aprime, frame.Aprime, z0, 1.0 + 0.0j)


class TestLockstep:
    def test_one_layout_per_format(self):
        # trackers of one format share its index arrays, built once and read-only
        frame, target = perturbed_target(3, 5, 1e-3, seed=85)
        c = np.full(5, 1 / np.sqrt(5))
        one = solver._Lockstep(target.data, c, frame.Aprime.data, 1j)
        two = solver._Lockstep(target.data, c)
        assert one.order is two.order and one.inverse is two.inverse
        layout = solver._layout(3, 5)
        assert layout[0] is one.order and layout[1] is one.inverse
        assert all(x is y for x, y in zip(layout, solver._layout(3, 5)))
        assert not any(arr.flags.writeable for arr in layout)
        assert one.inverse[:3].tolist() == [0, 1, 7]  # a_1, a_2, a_3 within z
        assert one.order.tolist() == [0, 1, 3, 4, 5, 6, 7, 2]
        assert one.inverse.tolist() == np.argsort(one.order).tolist()

    def test_one_tensor_map_is_the_t_1_map_without_its_zero_half(self):
        # the system of B alone: the upper half of the map of the homotopy
        # from B to B at gamma 1, whose lower half is zero, and the same
        # Jacobians and values at t = 1 up to the summation order
        _, target = perturbed_target(3, 5, 1e-3, seed=85)
        c = solver._draws(5, np.random.default_rng(86))[0]
        one, both = solver._Lockstep(target.data, c), solver._Lockstep(target.data, c, target.data, 1.0)
        assert one.L.shape == (8, 6 * 7) and both.L.shape == (16, 6 * 7)
        assert np.array_equal(one.L, both.L[:8]) and not both.L[8:].any()
        z, t = solver._start_rows(3, 5, c)[:, one.order], np.ones(15)
        J_one, J_both = one._stack(15), both._stack(15)
        F_one, F_both = one._evaluate(J_one, z, t), both._evaluate(J_both, z, t)
        assert np.max(np.abs(J_one - J_both)) <= 1e-15 * np.max(np.abs(J_both))
        assert np.max(np.abs(F_one - F_both)) <= 1e-13

    def test_singular_row_fails_alone(self):
        rng = np.random.default_rng(27)
        A = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        A[2] = 0.0
        rhs = rng.standard_normal((4, 5)) + 0j
        with np.errstate(invalid="ignore"):
            x = solver._solve_rows(A, rhs, np.empty_like(rhs))
        assert np.isnan(x).all(axis=1).tolist() == [False, False, True, False]
        for p in (0, 1, 3):
            assert np.array_equal(x[p], np.linalg.solve(A[p], rhs[p]))

    @pytest.mark.parametrize("N", [6, 8, 10])
    def test_stacked_solve_matches_numpy_row_by_row(self, N):
        # the LAPACK gufunc is np.linalg.solve without its Python wrapper:
        # every regular row equals np.linalg.solve bit for bit, and a
        # singular or NaN row comes back NaN instead of raising
        rng = np.random.default_rng(N)
        P = 40
        A = rng.standard_normal((P, N, N)) + 1j * rng.standard_normal((P, N, N))
        rhs = rng.standard_normal((P, N)) + 1j * rng.standard_normal((P, N))
        A[3] = 0.0
        A[7, 2] = 0.0  # a zero row
        A[11, :, 4] = 0.0  # a zero column
        A[13, 1, 1] = np.nan
        rhs[17, 0] = np.nan
        bad = {3, 7, 11, 13, 17}
        with np.errstate(invalid="ignore"):
            x = solver._solve_rows(A, rhs, np.empty_like(rhs))
        for p in range(P):
            if p in bad:
                assert np.isnan(x[p]).all(), p
            else:
                assert np.array_equal(x[p], np.linalg.solve(A[p], rhs[p])), p

    def test_singular_path_fails_alone(self):
        # a start at z = 0 has a singular Jacobian at every t; only that
        # row of the stack may fail, and the other rows must not move
        m, n = 3, 4
        frame, target = perturbed_target(m, n, 1e-2, seed=28)
        c = solver._draws(n, np.random.default_rng(28))[0]
        z0 = solver._start_rows(m, n, c)
        z0_bad = np.insert(z0, 3, 0.0, axis=0)

        tracker = solver._Lockstep(target.data, c, frame.Aprime.data, complex(0.6, -0.8))
        z_ref, failed_ref = tracker.run(z0)
        z_bad, failed_bad = tracker.run(z0_bad)
        assert not failed_ref
        assert list(failed_bad) == [3]
        reason, detail = failed_bad[3]
        assert reason == PATH_STALL
        assert "singular tangent" in detail
        assert np.max(np.abs(np.delete(z_bad, 3, axis=0) - z_ref)) < 1e-10

    def test_singular_midpoint_tangent_stalls(self, monkeypatch):
        # every tangent at a step's midpoint comes back NaN while every
        # tangent at its start is regular: each step is rejected until the
        # step underflows, and the failure names the singular tangent
        m, n = 3, 4
        frame, target = perturbed_target(m, n, 1e-2, seed=28)
        c = solver._draws(n, np.random.default_rng(28))[0]
        tangent, solve_rows = solver._Lockstep._tangent, solver._solve_rows
        state, firsts = {"tangents": 0, "inside": False}, []

        def counted(self, J, z, t):
            state["tangents"] += 1
            state["inside"] = True
            try:
                return tangent(self, J, z, t)
            finally:
                state["inside"] = False

        def midpoint_singular(A, rhs, out):
            solve_rows(A, rhs, out)
            if state["inside"]:  # a tangent's solve; every second is a midpoint's
                if state["tangents"] % 2:
                    firsts.append(out.copy())
                else:
                    out[:] = np.nan
            return out

        monkeypatch.setattr(solver._Lockstep, "_tangent", counted)
        monkeypatch.setattr(solver, "_solve_rows", midpoint_singular)
        report = track_path(frame.Aprime, target, solver._start_rows(m, n, c)[0], complex(0.6, -0.8), c)
        [failure] = report.failures
        assert failure.reason == PATH_STALL
        assert failure.detail == "singular tangent at t = 0.000000"
        assert len(firsts) > 20 and not np.isnan(np.concatenate(firsts)).any()

    def test_tracking_work_is_pinned(self, monkeypatch):
        # the (stacked evaluations, stacked solves) of tracking alone on
        # fixed Gaussian targets: a change to any step decision (an accept,
        # a reject, a step size or when a row leaves a stack) moves them
        solves = TestNewtonRoute.solve_work(monkeypatch)
        pinned = {(3, 3, 0): (302, 381), (3, 3, 1): (159, 198), (3, 3, 2): (102, 127),
                  (5, 5, 0): (332, 406), (5, 5, 1): (519, 644)}
        for m, n, k in pinned:
            target = tensorcore.Tensor3(np.random.default_rng((94, m, n, k)).standard_normal((m + n - 2, n, m)))
            assert tracker_only(monkeypatch, target, (95, m, n, k)).complete
        assert solves == [(solver.TRACKED, work) for work in pinned.values()]

    @staticmethod
    def _tracker(m, n, seed):
        frame, target = perturbed_target(m, n, 1e-1, seed=seed)
        c = solver._draws(n, np.random.default_rng(seed))[0]
        tracker = solver._Lockstep(target.data, c, frame.Aprime.data, complex(0.6, -0.8))
        return frame, target, tracker, c

    def test_corrector_rows_leave_alone(self):
        # one mixed stack: every row ends as it would alone, and a row that
        # leaves (converged, broken down or singular) is not touched again;
        # the rows are in the tracker's order (a_1..a_(m-1), b, a_m)
        m, n = 3, 4
        _, _, tracker, c = self._tracker(m, n, seed=37)
        rng = np.random.default_rng(37)
        starts = solver._start_rows(m, n, c)
        start = starts[0]
        near = starts[1] + 1e-6 * (rng.standard_normal(m + n) + 1j * rng.standard_normal(m + n))
        near[m - 1] = -1.0  # stay on both charts, so only the top rows are off
        near[m:] /= c @ near[m:]
        far = rng.standard_normal(m + n) + 1j * rng.standard_normal(m + n)
        huge = np.full(m + n, 1e6, dtype=complex)
        rows = {"start": start, "nan": np.full(m + n, np.nan + 0j), "near": near,
                "huge": huge, "zero": np.zeros(m + n, dtype=complex), "far": far}
        rows = {name: row[tracker.order] for name, row in rows.items()}
        start, near, huge = rows["start"], rows["near"], rows["huge"]
        z = np.array(list(rows.values()))
        t = np.zeros(len(z))
        # run() silences the floating-point flags of the NaN, huge and zero rows
        with np.errstate(all="ignore"):
            out, ok, moved = tracker._correct(tracker._stack(len(z)), z, t, np.full(len(z), np.inf), 3)
            alone, ok_alone, moved_alone = tracker._correct(tracker._stack(1), near[None], t[:1], np.full(1, np.inf), 3)
            huge_ok = tracker._correct(tracker._stack(1), huge[None], t[:1], np.full(1, np.inf), 60)[1][0]
        got = {name: (out[i], ok[i], moved[i]) for i, name in enumerate(rows)}
        assert np.array_equal(z, np.array(list(rows.values())), equal_nan=True)  # input untouched

        assert got["start"][1] and got["start"][2] == 0.0
        assert np.array_equal(got["start"][0], start)
        assert got["near"][1] and got["near"][2] > 0.0
        assert ok_alone[0]
        assert np.max(np.abs(got["near"][0] - alone[0])) < 1e-12
        assert abs(got["near"][2] - moved_alone[0]) < 1e-12
        for name in ("nan", "huge", "zero", "far"):
            assert not got[name][1], name
        for name in ("nan", "huge", "zero"):
            assert np.array_equal(got[name][0], rows[name], equal_nan=True), name
            assert got[name][2] == 0.0, name
        # Newton would reach the path from the huge row in 60 iterations;
        # a residual beyond 1e10 stops it at once
        assert not huge_ok

    @staticmethod
    def _predictions(m, n, seed):
        # predictions 1e-8 to 1e-1 off start points, which the tracker's
        # system solves exactly at t = 0, in the tracker's order; like every
        # prediction, they keep a_m = -1
        _, _, tracker, c = TestLockstep._tracker(m, n, seed)
        rng = np.random.default_rng(seed)
        starts = solver._start_rows(m, n, c)[:, tracker.order]
        rows = []
        for eps in (1e-8, 1e-6, 1e-4, 1e-2, 1e-1):
            for start in starts[:4]:
                noise = rng.standard_normal(m + n) + 1j * rng.standard_normal(m + n)
                noise[-1] = 0.0
                rows.append(start + eps * noise)
        return tracker, np.array(rows)

    def test_limit_stops_only_rows_that_would_pass_it(self):
        # the summed correction only grows, so stopping a row once it passes
        # its limit changes nothing but which rows converge within it: a row
        # converges under a limit exactly when it converges without one
        # within that limit, and then with the same z and correction bits
        m, n = 3, 4
        tracker, z = self._predictions(m, n, seed=40)
        t = np.zeros(1)
        inf = np.full(1, np.inf)
        checked = 0
        with np.errstate(all="ignore"):
            for row in z:
                out_inf, ok_inf, moved_inf = tracker._correct(tracker._stack(1), row[None], t, inf, solver.MAX_NEWTON)
                need = moved_inf[0]
                for limit in (0.0, 0.5 * need, need, np.nextafter(need, 0.0), 2.0 * need, 1e-9, 1e-3, 1.0):
                    lim = np.full(1, limit)
                    out, ok, moved = tracker._correct(tracker._stack(1), row[None], t, lim, solver.MAX_NEWTON)
                    assert ok[0] == (ok_inf[0] and moved_inf[0] <= limit), (row, limit)
                    if ok[0]:
                        assert out.tobytes() == out_inf.tobytes() and moved.tobytes() == moved_inf.tobytes()
                        checked += 1
                    else:
                        assert np.array_equal(out, row[None]) and moved[0] == 0.0
        assert checked > len(z)  # rows converged under limits both at and above their need

    def test_rows_past_their_limit_leave_the_stack(self, monkeypatch):
        # a row whose corrections pass its limit is in no later stacked solve
        # of that corrector call: with the limited rows added, every solve
        # after the first has the height it has without them
        m, n = 3, 4
        tracker, z = self._predictions(m, n, seed=41)
        z = z[8:16]  # 1e-4 and 1e-2 off: Newton needs several solves
        heights = []
        solve_rows = solver._solve_rows

        def record(A, rhs, out):
            heights.append(len(A))
            return solve_rows(A, rhs, out)

        monkeypatch.setattr(solver, "_solve_rows", record)
        free = np.arange(len(z)) % 2 == 0
        limit = np.where(free, np.inf, 1e-12)
        t = np.zeros(len(z))
        _, ok, _ = tracker._correct(tracker._stack(len(z)), z, t, limit, solver.MAX_NEWTON)
        mixed, heights[:] = heights[:], []
        _, ok_free, _ = tracker._correct(tracker._stack(free.sum()), z[free], t[free], limit[free], solver.MAX_NEWTON)
        alone, heights[:] = heights[:], []
        tracker._correct(tracker._stack(len(z)), z, t, np.full(len(z), np.inf), solver.MAX_NEWTON)
        unlimited = heights[:]

        assert ok[free].all() and ok_free.all() and not ok[~free].any()
        assert mixed[0] == len(z) and alone[0] == free.sum()
        assert mixed[1:] == alone[1:] and len(mixed) > 1
        # without a limit the same rows stay in the later solves
        assert unlimited[1] == len(z) and sum(unlimited) > sum(mixed)

    def test_tangent_solves_the_t_derivative(self):
        # J(z, t) k = -dF/dt, with dF/dt = M(a, B_to - gamma B_from) b and
        # the Jacobian in all m+n coordinates written out entry by entry:
        # the tangent leaves a_m where it is
        m, n = 3, 4
        frame, target, tracker, c = self._tracker(m, n, seed=38)
        rng = np.random.default_rng(38)
        P = 4
        z = rng.standard_normal((P, m + n)) + 1j * rng.standard_normal((P, m + n))
        t = rng.uniform(0.0, 1.0, P)
        k = tracker._tangent(tracker._stack(P), z[:, tracker.order], t)
        assert not np.isnan(k).any()
        assert not k[:, -1].any()
        J, _, dF = full_system(frame.Aprime.data, target.data, complex(0.6, -0.8), c, z, t)
        lhs = np.einsum("pij,pj->pi", J, k[:, np.argsort(tracker.order)])
        assert np.max(np.abs(lhs + dF)) < 1e-10 * max(1.0, np.max(np.abs(dF)))

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 5), (5, 5)])
    def test_reduced_steps_match_the_full_system(self, m, n, monkeypatch):
        # the tracker solves for the m+n-1 unknowns with a_m = -1 fixed: at
        # tracked points its tangents and Newton steps are those of the full
        # system in all m+n coordinates with its chart row e_m, solved by
        # np.linalg.solve, and a_m does not move
        u = m + n - 2
        rng = np.random.default_rng((42, m, n))
        B_to = rng.standard_normal((u, n, m))
        c, gamma = solver._draws(n, rng)
        B_from = tensorcore.make_start_frame(m, n).Aprime.data
        tracker = solver._Lockstep(B_to, c, B_from, gamma)
        ends, failed = tracker.run(solver._start_rows(m, n, c))
        ends = np.delete(ends, list(failed), axis=0)
        # the endpoints, and points 1e-3 off them with a_m kept, at t = 1
        noise = 1e-3 * (rng.standard_normal(ends.shape) + 1j * rng.standard_normal(ends.shape))
        noise[:, m - 1] = 0.0
        z = np.concatenate([ends, ends + noise])
        t = np.ones(len(z))
        J, F, dF = full_system(B_from, B_to, gamma, c, z, t)
        order, off = tracker.order, slice(len(ends), None)

        solved = []
        solve_rows = solver._solve_rows

        def record(A, rhs, out):
            solved.append((rhs.copy(), solve_rows(A, rhs, out).copy()))
            return out

        monkeypatch.setattr(solver, "_solve_rows", record)
        k = tracker._tangent(tracker._stack(len(z)), z[:, order], t)
        assert not np.isnan(k).any() and not k[:, -1].any()
        tracker._correct(tracker._stack(len(ends)), z[off][:, order], t[off], np.full(len(ends), np.inf), 1)
        assert len(solved) == 2 and np.array_equal(solved[0][1], k[:, :-1])

        def close(x, y, tol, floor=0.0):
            # per row, relative to the larger row's max-norm, or to the floor
            scale = np.maximum(np.maximum(np.abs(x).max(axis=1), np.abs(y).max(axis=1)), floor)
            return np.all(np.abs(x - y).max(axis=1) <= tol * scale)

        for (rhs, x), J_full, rhs_full, zs in zip(solved, (J, J[off]), (-dF, F[off]), (z, z[off])):
            # the right-hand side is the full one without its a_m row, which
            # is 0; a residual is accurate to the corrector's scale max(1, |z|)
            assert close(np.insert(rhs, u, 0.0, axis=1), rhs_full, 1e-12, np.fmax(1.0, np.abs(zs).max(axis=1)))
            # two backward-stable solves of one system agree to 1e-12, or to
            # cond * 1e-16 where it is worse conditioned than 1e4
            tol = np.maximum(1e-12, 1e-16 * np.linalg.cond(J_full))
            full = np.linalg.solve(J_full, np.insert(rhs, u, 0.0, axis=1)[..., None])[..., 0]
            assert close(np.append(x, np.zeros((len(x), 1)), axis=1), full[:, order], tol)
        # Newton to convergence leaves a_m = -1 as it was, bit for bit
        inf = np.full(len(ends), np.inf)
        out, ok, _ = tracker._correct(tracker._stack(len(ends)), z[off][:, order], t[off], inf, solver.MAX_NEWTON)
        assert ok.all() and np.all(out[:, -1] == -1.0)

    @pytest.mark.parametrize("P", [0, 1, 6, 70])
    def test_jacobian_buffer_matches_a_fresh_build(self, P):
        # the top rows written in place into a stack's buffer equal, bit for
        # bit, a fresh product of the same height joined to the chart row
        # [0, c], also after the stack is gathered
        m, n = 5, 5
        _, _, tracker, c = self._tracker(m, n, seed=39)
        rng = np.random.default_rng(39)
        z = rng.standard_normal((P, m + n)) + 1j * rng.standard_normal((P, m + n))
        t = rng.uniform(0.0, 1.0, P)
        K = m + n - 1

        def fresh(z, t):
            zz = np.concatenate([z, t[:, None] * z], axis=1)
            top = (zz @ tracker.L).reshape(len(z), tracker.u, K)
            chart = np.append(np.zeros(m - 1), c).astype(complex)
            return np.concatenate([top, np.broadcast_to(chart, (len(z), 1, K))], axis=1)

        J = tracker._stack(P)
        tracker._build(J, z, t)
        assert J.shape == (P, tracker.u + 1, K)
        assert J.tobytes() == fresh(z, t).tobytes()
        keep = rng.random(P) < 0.5
        J = J[keep]
        tracker._build(J, z[keep] + 1.0, t[keep])
        assert J.tobytes() == fresh(z[keep] + 1.0, t[keep]).tobytes()

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 5), (5, 5)])
    def test_finished_rows_pass_the_residual_test_at_t_1(self, m, n):
        # a path finishes only on a step whose corrector converged at t = 1,
        # so every endpoint run() returns passes that test again as it stands
        u = m + n - 2
        for seed in range(3):
            rng = np.random.default_rng((seed, m, n))
            target = rng.standard_normal((u, n, m))
            c, gamma = solver._draws(n, rng)
            frame = tensorcore.make_start_frame(m, n)
            tracker = solver._Lockstep(target, c, frame.Aprime.data, gamma)
            z, failed = tracker.run(solver._start_rows(m, n, c))
            ends = np.setdiff1d(np.arange(len(z)), list(failed))
            assert ends.size, (m, n, seed)
            inf = np.full(ends.size, np.inf)
            z = z[ends][:, tracker.order]
            out, ok, moved = tracker._correct(tracker._stack(ends.size), z, np.ones(ends.size), inf, 0)
            assert ok.all(), (m, n, seed, ends[~ok])
            assert np.array_equal(out, z) and not moved.any()


class TestSolveAll:
    @pytest.mark.parametrize("seed", [None, 1.5, "x", -1, True, (1, -2), [2, None]], ids=repr)
    def test_seed_outside_documented_types_refused(self, seed):
        # None would draw fresh entropy for gamma and the charts on every call
        frame = tensorcore.make_start_frame(3, 3)
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer or a tuple or list of them, got "):
            solve_all(frame.Aprime, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint8(7), (1, 2), [1, 2], (np.int32(1), 2), ()], ids=repr)
    def test_documented_seeds_reach_the_generator_unchanged(self, seed):
        _, target = perturbed_target(3, 3, 1e-2, seed=10)
        report = solve_all(target, seed=seed)
        c, gamma = solver._draws(3, np.random.default_rng(seed))
        assert np.array_equal(report.chart_b, c)
        assert report.gamma == gamma

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 19: a positive-dimensional solution set reads as complete")
    @pytest.mark.parametrize("zero", ["target", "last_slice"])
    def test_positive_dimensional_solution_set_is_not_complete(self, zero):
        # every a with M(a, B) = 0 has a kernel: the zero target (route
        # TRACKED) and, with B_3 = 0, a = (0, 0, -1) (route NEWTON).  Both
        # come back as complete solves with 6 endpoints, real count 2 and no
        # closure note
        data = np.random.default_rng(0).standard_normal((4, 3, 3))
        data[..., -1] = 0.0
        if zero == "target":
            data[:] = 0.0
        report = solve_all(tensorcore.Tensor3(data), seed=0)
        assert not report.complete

    def test_recovers_start_system(self):
        frame = tensorcore.make_start_frame(3, 3)
        report = solve_all(frame.Aprime, seed=7)
        assert report.n_paths == 6
        assert report.complete
        assert report.real_count == 2
        subsets = set(solver._start_system(3, 3).subsets)
        assert len(report.solutions) == len(subsets)

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4), (4, 4)])
    def test_perturbed_real_count_stable(self, m, n):
        for trial in range(5):
            frame, target = perturbed_target(m, n, 1e-3, seed=(m, n, trial))
            report = solve_all(target, seed=(8, trial))
            assert report.complete
            assert len(report.solutions) == math.comb(m + n - 2, m - 1)
            assert report.real_count == polyfactor.alpha_closed(m, n)

    def test_path_conservation_and_conjugation(self):
        m, n = 3, 3
        rng = np.random.default_rng(1234)
        for trial in range(10):
            target = tensorcore.Tensor3(rng.standard_normal((4, 3, 3)))
            report = solve_all(target, seed=(9, trial))
            assert len(report.solutions) + len(report.failures) == report.n_paths
            assert report.real_count % 2 == 0  # conjugate pairs
            if report.complete:
                # endpoint multiset closed under conjugation
                for s in report.solutions:
                    conj_found = any(
                        np.max(np.abs(np.conj(s[:m]) - s2[:m])) < 1e-6
                        and np.max(np.abs(_align(np.conj(s[m:])) - _align(s2[m:]))) < 1e-6
                        for s2 in report.solutions
                    )
                    assert conj_found

    def test_endpoint_arrays_are_parallel(self):
        m, n = 3, 4
        _, target = perturbed_target(m, n, 1e-2, seed=12)
        report = solve_all(target, seed=13)
        K = len(report.solutions)
        assert K > 0 and report.solutions.shape == (K, m + n)
        assert len(report.residuals) == len(report.real) == len(report.path_index) == K
        assert report.real.dtype == bool
        assert report.real_count == report.real.sum()
        z = report.solutions
        residuals = solver._residuals(target, z[:, :m], z[:, m:], solver._unit_shift(target.data))
        assert np.array_equal(report.residuals, residuals)

    def test_determinism(self):
        _, target = perturbed_target(3, 3, 1e-2, seed=10)
        r1 = solve_all(target, seed=11)
        r2 = solve_all(target, seed=11)
        assert r1.gamma == r2.gamma
        assert np.array_equal(r1.solutions, r2.solutions)

    def test_lockstep_matches_single_path_tracking(self):
        # the batch must not couple paths: each endpoint equals the one its
        # start reaches when tracked alone (P = 1)
        for m, n, seed in [(3, 4, 21), (4, 4, 22)]:
            rng = np.random.default_rng(seed)
            target = tensorcore.Tensor3(rng.standard_normal((m + n - 2, n, m)))
            report = solve_all(target, seed=seed)
            assert report.complete
            frame = tensorcore.make_start_frame(m, n)
            starts = start_solutions(m, n, seed=seed).solutions
            for z, idx in zip(report.solutions, report.path_index):
                alone = track_path(frame.Aprime, target, starts[idx], report.gamma, c=report.chart_b).solutions[0]
                assert np.max(np.abs(alone[:m] - z[:m])) < 1e-10
                assert np.max(np.abs(alone[m:] - z[m:])) < 1e-10

    def test_batches_of_whole_paths_match_one_batch(self, monkeypatch):
        _, target = perturbed_target(4, 4, 1e-2, seed=31)
        one = solve_all(target, seed=32)
        monkeypatch.setattr(solver, "STACK_ENTRIES", 3 * 8**2)  # 3 paths a batch
        split = solve_all(target, seed=32)
        assert split.path_index.tolist() == one.path_index.tolist()
        assert np.max(np.abs(one.solutions - split.solutions)) < 1e-10

    def test_easy_paths_take_long_steps(self, monkeypatch):
        # near the start frame the paths are almost straight: once an easy
        # step doubles the next one, a few steps reach t = 1, where a fixed
        # ceiling of INITIAL_STEP would need 1 / INITIAL_STEP = 20.  solve_all
        # takes the Newton route there, so the route is switched off.
        _, target = perturbed_target(3, 5, 1e-3, seed=33)
        monkeypatch.setattr(solver, "MAX_STEPS", 15)
        report = tracker_only(monkeypatch, target, 34)
        assert report.complete
        assert report.real_count == polyfactor.alpha_closed(3, 5)

    def test_mutating_endpoints_leaves_the_next_call(self):
        _, target = perturbed_target(3, 4, 1e-2, seed=35)
        first = solve_all(target, seed=36)
        ends = first.solutions.copy()
        with pytest.raises(ValueError, match="read-only"):
            first.solutions[:] = 7.0
        again = solve_all(target, seed=36)
        assert np.array_equal(again.solutions, ends)

    def test_step_budget_fails_every_path(self, monkeypatch):
        # at eps 1 the Newton route's pre-test declines, so every path is tracked
        _, target = perturbed_target(3, 4, 1.0, seed=23)
        monkeypatch.setattr(solver, "MAX_STEPS", 2)
        report = solve_all(target, seed=24)
        assert len(report.solutions) == len(report.path_index) == 0
        assert [f.index for f in report.failures] == list(range(report.n_paths))
        assert {f.reason for f in report.failures} == {PATH_STALL}

    def test_root_at_infinity_is_retried_once(self):
        # slice 0 of B kills v, so a = e_1 (a_m = 0) solves M(a, B) b = 0:
        # that path leaves the a_m = -1 chart, is retried on a complex
        # chart, and ends outside a_m = -1 again
        rng = np.random.default_rng(29)
        data = rng.standard_normal((4, 3, 3))
        v = rng.standard_normal(3)
        data[:, :, 0] -= np.outer(data[:, :, 0] @ v, v) / (v @ v)
        report = solve_all(tensorcore.Tensor3(data), seed=30)
        assert [f.reason for f in report.failures] == [CHART_ESCAPE]
        assert len(report.solutions) == report.n_paths - 1

    def test_retried_path_completes_on_a_m_chart(self):
        # slice 0 of B nearly kills v, so one path runs off to infinity on
        # a_m = -1 but ends at a finite point; the retry pass lands it, and
        # it is reported back on a_m = -1 like every other endpoint
        m, n = 3, 3
        target = retried_target()
        report = solve_all(target, seed=1)

        # the path that reaches infinity when tracked alone on a_m = -1
        frame = tensorcore.make_start_frame(m, n)
        starts = start_solutions(m, n, seed=1).solutions
        retried = []
        for idx, z0 in enumerate(starts):
            alone = track_path(frame.Aprime, target, z0, report.gamma, c=report.chart_b)
            assert alone.n_paths == 1
            if not alone.complete:
                # a failed path is its one-path report's failure; nothing is raised
                assert len(alone.solutions) == len(alone.path_index) == 0
                assert [(f.index, f.reason) for f in alone.failures] == [(0, AT_INFINITY)]
                retried.append(idx)
        assert len(retried) == 1

        assert report.complete
        assert retried[0] in report.path_index.tolist()
        k = report.path_index.tolist().index(retried[0])
        row = report.solutions[k]
        assert row[m - 1] == -1.0
        assert (report.n_paths - report.real_count) % 2 == 0
        # the residual is an absolute 2-norm over the u rows of M(a, B) b,
        # inside the bound that the corrector's relative max-norm test implies
        u = tensorcore.Format(m, n).u
        assert report.residuals[k] <= np.sqrt(u) * solver.CORRECTOR_TOL * max(1.0, np.abs(row).max())

    def test_retried_path_that_blows_up_again_names_the_retry_chart(self, monkeypatch):
        # with a blow-up norm of 3 the retried rows run off to infinity on
        # the retry chart too; each failure says so
        monkeypatch.setattr(solver, "BLOWUP_NORM", 3.0)
        report = solve_all(retried_target(), seed=1)
        assert report.route == solver.TRACKED and report.failures
        for f in report.failures:
            assert f.reason == AT_INFINITY
            assert f.detail.startswith("retry chart: coordinate norm beyond 3e+00 at t = "), f.detail

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 5), (5, 5), (6, 10)])
    def test_retry_rotation_keeps_the_pencil(self, m, n):
        # the retry pass tracks a' = R a on B R^H, for a unitary R whose last
        # row is d / |d|: the chart d . a = -1 is a'_m = -1, and the pencil
        # M(a, B) b is M(a', B R^H) b
        rng = np.random.default_rng((44, m, n))
        d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        R = solver._rotation(d)
        assert np.max(np.abs(R @ R.conj().T - np.eye(m))) < 1e-14
        assert np.array_equal(R[-1], d / np.linalg.norm(d))
        B = tensorcore.Tensor3(rng.standard_normal((m + n - 2, n, m)))
        a = rng.standard_normal((20, m)) + 1j * rng.standard_normal((20, m))
        b = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
        before = (tensorcore.pencil_eval(a, B) @ b[..., None])[..., 0]
        after = np.einsum("ijk,pj,pk->pi", B.data @ R.conj().T, b, a @ R.T)
        assert np.max(np.abs(after - before)) <= 1e-13 * np.abs(before).max()

    def test_retry_pass_leaves_numpy_ma_unimported(self):
        # the retry pass picks its landed rows with a boolean mask; set
        # operations such as np.setdiff1d import numpy.ma on first use,
        # which costs every process about half a megabyte of memory
        code = """
import sys
import numpy as np
from semitall import solver, tensorcore
runs = []
run = solver._Lockstep.run
solver._Lockstep.run = lambda self, z0: runs.append(len(z0)) or run(self, z0)
m, n = 3, 3
rng = np.random.default_rng((29, m, n, 1))
data = rng.standard_normal((4, n, m))
v = rng.standard_normal(m)
data[:, :, 0] -= (1 - 1e-8) * np.outer(data[:, :, 0] @ v, v) / (v @ v)
assert "numpy.ma" not in sys.modules
report = solver.solve_all(tensorcore.Tensor3(data), seed=1)
assert report.complete and runs == [6, 1], runs
print("numpy.ma" in sys.modules)
"""
        src = str(pathlib.Path(solver.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "False\n"

    def test_error_state_is_left_as_found(self):
        # the tracker silences floating-point flags only while it tracks a
        # batch: the caller's error state holds before and after, and no
        # arithmetic outside the batches trips it
        rng = np.random.default_rng(29)
        data = rng.standard_normal((4, 3, 3))
        v = rng.standard_normal(3)
        data[:, :, 0] -= np.outer(data[:, :, 0] @ v, v) / (v @ v)
        with np.errstate(invalid="raise", over="raise", divide="raise"):
            before = np.geterr()
            report = solve_all(tensorcore.Tensor3(data), seed=30)
            assert np.geterr() == before
        assert [f.reason for f in report.failures] == [CHART_ESCAPE]

    def test_collisions_name_the_first_kept_path(self, monkeypatch):
        _, target = perturbed_target(3, 3, 1e-3, seed=25)
        monkeypatch.setattr(solver, "DEDUP_TOL", 1e3)
        report = solve_all(target, seed=26)
        assert report.path_index.tolist() == [0]
        assert [f.index for f in report.failures] == list(range(1, report.n_paths))
        for f in report.failures:
            assert f.reason == WARN_MULTIPLICITY
            assert f.detail == "endpoint within 1000 of path 0"

    def test_endpoint_separation(self):
        _, target = perturbed_target(4, 4, 1e-3, seed=14)
        report = solve_all(target, seed=15)
        sols = report.solutions
        for i, s in enumerate(sols):
            for s2 in sols[i + 1 :]:
                assert np.max(np.abs(s - s2)) > 1e-6

    def test_gamma_excludes_real_axis(self):
        for seed in range(20):
            _, target = perturbed_target(3, 3, 1e-3, seed=seed)
            report = solve_all(target, seed=seed)
            assert abs(report.gamma.imag) > 0.1


class TestReport:
    # a report is frozen with read-only arrays, and its closure audit is
    # computed once
    def test_reports_are_frozen_with_read_only_arrays(self):
        frame, near = perturbed_target(3, 5, 1e-3, seed=85)
        _, far = perturbed_target(3, 5, 1.0, seed=75)
        start = start_solutions(3, 5, seed=86)
        reports = [
            start,
            solve_all(near, seed=86),
            solve_all(far, seed=76),
            track_path(frame.Aprime, near, start.solutions[0], complex(0.6, -0.8), start.chart_b),
        ]
        assert [r.route for r in reports] == [solver.START, solver.NEWTON, solver.TRACKED, solver.TRACKED]
        for report in reports:
            arrays = [f.name for f in dataclasses.fields(report) if isinstance(getattr(report, f.name), np.ndarray)]
            assert arrays == ["solutions", "residuals", "real", "path_index", "chart_b"]
            assert not any(getattr(report, name).flags.writeable for name in arrays)
            with pytest.raises(dataclasses.FrozenInstanceError):
                report.solutions = report.solutions.copy()
            with pytest.raises(dataclasses.FrozenInstanceError):
                report.route = solver.NEWTON

    def test_failures_are_a_frozen_tuple(self):
        # no caller can add, remove or edit the failures of a report whose
        # closure audit has run, and a replaced list comes back a tuple
        report = solve_all(tensorcore.Tensor3(np.random.default_rng(87).standard_normal((4, 3, 3))), seed=87)
        assert report.complete and report.closure == [] and report.failures == ()
        failure = solver.PathFailureInfo(0, PATH_STALL, "x")
        with pytest.raises(AttributeError):
            report.failures.append(failure)
        with pytest.raises(dataclasses.FrozenInstanceError):
            failure.reason = AT_INFINITY
        replaced = dataclasses.replace(report, failures=[failure])
        assert replaced.failures == (failure,) and not replaced.complete
        with pytest.raises(TypeError):
            replaced.failures[0] = solver.PathFailureInfo(1, PATH_STALL, "y")
        with pytest.raises(AttributeError):
            replaced.failures.clear()
        assert report.failures == () and replaced.failures == (failure,)

    def test_closure_is_computed_once(self, monkeypatch):
        _, target = perturbed_target(3, 5, 1e-3, seed=85)
        report = tracker_only(monkeypatch, target, 86)
        calls = []
        close_pairs = solver.close_pairs
        monkeypatch.setattr(solver, "close_pairs", lambda z, w: calls.append(len(z)) or close_pairs(z, w))
        first = report.closure
        assert first == [] and len(calls) == 1
        assert report.closure is first and len(calls) == 1


class TestFinish:
    # the endpoint audit on hand-built rows, with no tracking: Gaussian
    # points on a_m = -1, off any kernel pair of the (3,3) target A'
    @staticmethod
    def rows(P, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((P, 6)) + 1j * rng.standard_normal((P, 6))
        z[:, 2] = -1.0
        return tensorcore.make_start_frame(3, 3).Aprime, z

    def test_collision_names_the_first_kept_path(self):
        B, z = self.rows(6, 50)
        z[3], z[4] = z[1], z[1]
        z[3, 0] += 0.5 * solver.DEDUP_TOL
        z[4, 0] += 1.1 * solver.DEDUP_TOL  # within reach of 3 only, which is not kept
        z[5] = z[0]  # close to a failed path's row, which is not an endpoint
        c = np.array([1.0, 0.0, 0.0])
        errors = {0: (PATH_STALL, "step underflow")}
        report = solver._finish(B, z, errors, 1.0 + 0.0j, c, solver.TRACKED, 0)
        assert errors == {0: (PATH_STALL, "step underflow")}  # the caller's dict is left alone
        assert report.path_index.tolist() == [1, 2, 4, 5]
        assert [(f.index, f.reason, f.detail) for f in report.failures] == [
            (0, PATH_STALL, "step underflow"),
            (3, WARN_MULTIPLICITY, "endpoint within 1e-06 of path 1"),
        ]
        kept = z[report.path_index]
        assert np.array_equal(report.solutions, kept)
        assert np.array_equal(report.residuals, solver._residuals(B, kept[:, :3], kept[:, 3:], 0))
        assert np.array_equal(report.real, projectively_real(kept[:, :3], kept[:, 3:], solver.REALITY_TOL))
        assert (report.n_paths, report.m, report.n, report.gamma) == (6, 3, 3, 1.0 + 0.0j)
        assert np.array_equal(report.chart_b, c)

    def test_failed_rows_are_never_read(self):
        B, z = self.rows(5, 51)
        errors = {1: (AT_INFINITY, "x"), 3: (PATH_STALL, "y")}
        reports = []
        for fill in (np.nan, np.inf, z[0], z[2]):  # NaN, or a copy of a kept row
            z[[1, 3]] = fill
            reports.append(solver._finish(B, z, errors, 1.0 + 0.0j, np.ones(3), solver.TRACKED, 0))
        for report in reports:
            assert report.path_index.tolist() == [0, 2, 4]
            assert [f.index for f in report.failures] == [1, 3]
            assert np.array_equal(report.solutions, reports[0].solutions)
            assert np.array_equal(report.residuals, reports[0].residuals)

    @pytest.mark.parametrize("index", [-1, 4, 9])
    def test_failure_outside_the_paths_violates_conservation(self, index):
        B, z = self.rows(4, 52)
        with pytest.raises(RuntimeError, match=r"^path conservation violated: 4 paths, indices "):
            solver._finish(B, z, {index: (PATH_STALL, "x")}, 1.0 + 0.0j, np.ones(3), solver.TRACKED, 0)

    def test_every_solve_returns_through_it(self, monkeypatch):
        calls = []
        finish = solver._finish
        monkeypatch.setattr(solver, "_finish", lambda *args: calls.append(len(args[1])) or finish(*args))
        frame, target = perturbed_target(3, 4, 1e-3, seed=53)
        report = solve_all(target, seed=54)
        start_solutions(3, 5)
        z0 = solver._start_rows(3, 4, report.chart_b)[0]
        track_path(frame.Aprime, target, z0, report.gamma, report.chart_b)
        assert calls == [report.n_paths, 15, 1]


def same_report(r1, r2):
    return (
        r1.solutions.tobytes() == r2.solutions.tobytes()
        and r1.residuals.tobytes() == r2.residuals.tobytes()
        and r1.real.tolist() == r2.real.tolist()
        and r1.path_index.tolist() == r2.path_index.tolist()
        and [(f.index, f.reason, f.detail) for f in r1.failures] == [(f.index, f.reason, f.detail) for f in r2.failures]
        and (r1.gamma, r1.route) == (r2.gamma, r2.route)
    )


class TestNewtonRoute:
    @pytest.mark.parametrize("m,n", [(3, 5), (5, 5), (4, 8)])
    def test_near_start_targets_take_it(self, m, n):
        for trial in range(3):
            _, target = perturbed_target(m, n, 1e-3, seed=(71, m, n, trial))
            report = solve_all(target, seed=(72, m, n, trial))
            assert report.route == solver.NEWTON
            assert report.complete and not report.closure
            # one row per start row, each named by the start it began from
            assert report.path_index.tolist() == list(range(report.n_paths))
            bound = math.sqrt(m + n - 2) * solver.CORRECTOR_TOL * np.maximum(1, np.abs(report.solutions).max(axis=1))
            assert np.all(report.residuals < bound)

    @pytest.mark.parametrize("m,n", [(3, 5), (5, 5), (4, 8)])
    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_reaches_the_tracked_endpoints(self, m, n, eps, monkeypatch):
        # the endpoint set (matched by close_pairs) and the real count of
        # tracking; the pre-test and its second chance decline the (4,8)
        # target at eps 1e-2, so they are switched off there to compare
        # Newton from the start rows itself
        _, target = perturbed_target(m, n, eps, seed=(73, m, n))
        tracked = tracker_only(monkeypatch, target, (74, m, n))
        assert tracked.complete
        if (m, n, eps) == (4, 8, 1e-2):
            monkeypatch.setattr(solver, "BASIN", np.inf)
        report = solve_all(target, seed=(74, m, n))
        assert report.route == solver.NEWTON
        i, j = solver.close_pairs(report.solutions, tracked.solutions)
        assert sorted(i.tolist()) == sorted(j.tolist()) == list(range(report.n_paths))
        assert report.real_count == tracked.real_count

    def test_declined_pre_test_tracks(self, monkeypatch):
        # A' + R: some row's first Newton step passes BASIN * max(1, |z|inf)
        # and its second is no BASIN share of its first, so the attempt stops
        # before the corrector runs and fails every row
        frame, target = perturbed_target(3, 5, 1.0, seed=75)
        c = solver._draws(5, np.random.default_rng(76))[0]

        def no_corrector(*args):
            raise AssertionError("the corrector ran")

        with monkeypatch.context() as patch:
            patch.setattr(solver._Lockstep, "_correct", no_corrector)
            _, failed = solver._Lockstep(target.data, c).newton(solver._start_rows(3, 5, c))
        assert sorted(failed) == list(range(15))
        assert set(failed.values()) == {(PATH_STALL, "pre-test: a first Newton step passes the basin")}
        report = solve_all(target, seed=76)
        assert report.route == solver.TRACKED
        assert same_report(report, tracker_only(monkeypatch, target, 76))

    def test_collision_tracks(self, monkeypatch):
        # every row converges, but with DEDUP_TOL large the endpoints collide,
        # so the solve falls back to tracking, which reports the collisions
        _, target = perturbed_target(3, 5, 1e-3, seed=77)
        rows = []
        newton = solver._Lockstep.newton
        monkeypatch.setattr(solver._Lockstep, "newton", lambda self, z0: rows.append(newton(self, z0)) or rows[-1])
        monkeypatch.setattr(solver, "DEDUP_TOL", 10.0)
        report = solve_all(target, seed=78)
        assert rows[0][1] == {}
        assert report.route == solver.TRACKED
        assert {f.reason for f in report.failures} == {WARN_MULTIPLICITY}
        assert same_report(report, tracker_only(monkeypatch, target, 78))

    def test_closure_break_tracks(self, monkeypatch):
        # complete rows whose closure audit fails are not kept either
        _, target = perturbed_target(3, 5, 1e-3, seed=85)
        closure = solver.SolveReport.closure.func

        def broken(report):
            return ["broken"] if report.route == solver.NEWTON else closure(report)

        monkeypatch.setattr(solver.SolveReport.closure, "func", broken)
        report = solve_all(target, seed=86)
        assert report.route == solver.TRACKED and report.complete
        assert same_report(report, tracker_only(monkeypatch, target, 86))

    @staticmethod
    def solve_work(monkeypatch):
        # the route and the (stacked evaluations, stacked solves) of every
        # solve_all call, in call order
        counts = dict.fromkeys(("evaluate", "solve"), 0)
        solves = []
        evaluate, solve_rows, solve = solver._Lockstep._evaluate, solver._solve_rows, solver.solve_all

        def counted(name, f):
            def call(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            return call

        def solve_counted(*args, **kwargs):
            counts.update(evaluate=0, solve=0)
            report = solve(*args, **kwargs)
            solves.append((report.route, (counts["evaluate"], counts["solve"])))
            return report

        monkeypatch.setattr(solver._Lockstep, "_evaluate", counted("evaluate", evaluate))
        monkeypatch.setattr(solver, "_solve_rows", counted("solve", solve_rows))
        monkeypatch.setattr(solver, "solve_all", solve_counted)
        return solves

    def test_work_and_routes_on_the_perturb_pool(self, monkeypatch):
        # the 300 mc-perturb-3x5 inputs at seed 777, drawn as the benchmark's
        # perturb_experiment draws them: every one takes the route.  Four
        # fail the pre-test and pass its second chance, and make 5 stacked
        # evaluations and 4 stacked solves; every other solve makes 4 and 3
        solves = self.solve_work(monkeypatch)
        certifier.perturb_experiment(tensorcore.Format(3, 5), 1e-3, 300, seed=777)
        routes, work = zip(*solves)
        assert routes == (solver.NEWTON,) * 300
        second = {137: (5, 4), 210: (5, 4), 212: (5, 4), 278: (5, 4)}
        assert dict(enumerate(work)) == {k: second.get(k, (4, 3)) for k in range(300)}

    def test_route_rows_are_closed_by_construction(self, monkeypatch):
        # on the 300 mc-perturb-3x5 inputs at seed 777 the route's real rows
        # are the real starts' and exactly real, alpha of them, and every
        # partner row holds the bytes of its row's conjugate
        reports, solve = [], solver.solve_all
        monkeypatch.setattr(solver, "solve_all", lambda *args, **kw: reports.append(solve(*args, **kw)) or reports[-1])
        certifier.perturb_experiment(tensorcore.Format(3, 5), 1e-3, 300, seed=777)
        start = solver._start_system(3, 5)
        assert len(reports) == 300
        for report in reports:
            z = report.solutions
            assert report.route == solver.NEWTON and report.path_index.tolist() == list(range(15))
            assert report.real_count == polyfactor.alpha_closed(3, 5)
            assert np.flatnonzero(report.real).tolist() == start.fixed.tolist()
            assert not z[report.real].imag.any()
            assert z[start.partner[start.rep]].tobytes() == z[start.rep].conj().tobytes()

    def test_gaussian_pool_declines_after_two_steps(self, monkeypatch):
        # the 400 mc-gauss-3x3 inputs at seed 777, drawn as the benchmark's
        # global_experiment draws them: the second step does not contract,
        # so each target is declined after 2 stacked evaluations and 2
        # stacked solves, before the corrector runs.  Tracking, which the
        # route's decline leads to, is stubbed out: its work is not counted.
        def no_corrector(*args):
            raise AssertionError("the corrector ran")

        monkeypatch.setattr(solver._Lockstep, "_correct", no_corrector)
        monkeypatch.setattr(solver._Lockstep, "run", lambda self, z0: (z0, {0: (PATH_STALL, "not tracked")}))
        solves = self.solve_work(monkeypatch)
        certifier.global_experiment(tensorcore.Format(3, 3), 400, seed=777)
        assert solves == [(solver.TRACKED, (2, 2))] * 400

    def test_certify_pool_declines_after_two_steps(self, monkeypatch):
        # the 60 certify-5x5 inputs at seed 777, drawn as the benchmark draws
        # them (rng (777, 555, i), certificate seed 777000 + i): like the
        # Gaussian pool, each is declined after 2 stacked evaluations and 2
        # stacked solves, input 50 included, so every recorded verdict stays
        # tracking's.  Tracking is stubbed out: its work is not counted.
        def no_corrector(*args):
            raise AssertionError("the corrector ran")

        monkeypatch.setattr(solver._Lockstep, "_correct", no_corrector)
        monkeypatch.setattr(solver._Lockstep, "run", lambda self, z0: (z0, {0: (PATH_STALL, "not tracked")}))
        solves = self.solve_work(monkeypatch)
        fmt = tensorcore.Format(5, 5)
        for i in range(60):
            T = np.random.default_rng((777, 555, i)).standard_normal((fmt.n, fmt.p, fmt.m))
            certifier.certify(tensorcore.Tensor3(T), 777000 + i)
        assert solves == [(solver.TRACKED, (2, 2))] * 60

    @pytest.mark.parametrize("max_newton,route,work", [
        (1, solver.TRACKED, (1, 1)),
        (2, solver.TRACKED, (3, 2)),
        (3, solver.TRACKED, (4, 3)),
        (4, solver.NEWTON, (5, 4)),
    ])
    def test_second_chance_counts_against_max_newton(self, max_newton, route, work, monkeypatch):
        # mc-perturb-3x5 input 137 at seed 777 takes the second chance and
        # then two corrector steps: no row makes more than MAX_NEWTON Newton
        # steps (stacked solves), the second chance included.  Tracking is
        # stubbed out: its work is not counted.
        fmt = tensorcore.Format(3, 5)
        W0 = solver._start_system(3, 5).frame.W0
        T = tensorcore.tau(W0 + 1e-3 * np.random.default_rng((777, 101, 137)).standard_normal((fmt.u, fmt.p)), fmt)
        monkeypatch.setattr(solver, "MAX_NEWTON", max_newton)
        monkeypatch.setattr(solver._Lockstep, "run", lambda self, z0: (z0, {0: (PATH_STALL, "not tracked")}))
        solves = self.solve_work(monkeypatch)
        certifier.certify(T, (777, 102, 137))
        assert solves == [(route, work)]

    @pytest.mark.parametrize("m,n", [(3, 4), (3, 5), (4, 5)])
    def test_sound_across_the_route_boundary(self, m, n, monkeypatch):
        # A' + eps R from near the start frame to far past the route's reach:
        # a NEWTON report has tracking's endpoint set (matched by
        # close_pairs) and real count, and a declined target's report is
        # tracking's to the byte.  Both routes occur at every format.
        routes = set()
        for eps in (1e-3, 1e-2, 3e-2, 0.1, 1.0):
            for trial in range(4):
                _, target = perturbed_target(m, n, eps, seed=(91, m, n, trial))
                report = solve_all(target, seed=(92, m, n, trial))
                tracked = tracker_only(monkeypatch, target, (92, m, n, trial))
                routes.add(report.route)
                if report.route == solver.NEWTON:
                    assert tracked.complete
                    i, j = solver.close_pairs(report.solutions, tracked.solutions)
                    assert sorted(i.tolist()) == sorted(j.tolist()) == list(range(report.n_paths))
                    assert report.real_count == tracked.real_count
                else:
                    assert same_report(report, tracked)
        assert routes == {solver.NEWTON, solver.TRACKED}

    def test_batches_of_whole_rows_match_one_batch(self, monkeypatch):
        _, target = perturbed_target(4, 5, 1e-3, seed=79)
        one = solve_all(target, seed=80)
        monkeypatch.setattr(solver, "STACK_ENTRIES", 3 * 8**2)  # 3 rows a batch
        split = solve_all(target, seed=80)
        assert one.route == split.route == solver.NEWTON
        assert split.path_index.tolist() == one.path_index.tolist()
        assert np.max(np.abs(one.solutions - split.solutions)) < 1e-10

    def test_one_failed_batch_declines_the_target(self, monkeypatch):
        # the last batch's last row starts from far, where its second Newton
        # step does not contract: the earlier batches converge as before, and
        # the last one's failures, by row of z0, decline the target
        _, target = perturbed_target(3, 5, 1e-3, seed=81)
        c = solver._draws(5, np.random.default_rng(82))[0]
        z0 = solver._start_rows(3, 5, c)
        monkeypatch.setattr(solver, "STACK_ENTRIES", 4 * 7**2)  # 4 rows a batch
        tracker = solver._Lockstep(target.data, c)
        first, failed = tracker.newton(z0)
        assert failed == {}
        z0[-1, [0, 3]] += 10.0
        rows, failed = tracker.newton(z0)
        assert sorted(failed) == [12, 13, 14]
        assert rows[:12].tobytes() == first[:12].tobytes()
        assert set(failed.values()) == {(PATH_STALL, "pre-test: a first Newton step passes the basin")}

    def test_unconverged_rows_fail(self, monkeypatch):
        # one Newton step in all passes the pre-test but converges no row
        _, target = perturbed_target(3, 5, 1e-3, seed=81)
        c = solver._draws(5, np.random.default_rng(82))[0]
        monkeypatch.setattr(solver, "MAX_NEWTON", 1)
        _, failed = solver._Lockstep(target.data, c).newton(solver._start_rows(3, 5, c))
        assert sorted(failed) == list(range(15))
        assert set(failed.values()) == {(PATH_STALL, "no convergence in 1 Newton steps")}


class TestScale:
    @pytest.mark.parametrize("m,n,eps", [(3, 3, 1.0), (4, 5, 1.0), (3, 5, 1e-3)])
    def test_power_of_two_multiples_solve_alike(self, m, n, eps):
        # B has largest entry 1, so every multiple 2^j B beyond the band is
        # solved at B itself, and the solve is B's to the bit
        _, target = perturbed_target(m, n, eps, seed=(83, m, n))
        B = tensorcore.Tensor3(target.data / np.abs(target.data).max())
        base = solve_all(B, seed=84)
        assert base.complete
        for j in (-500, -40, -12, -8, -2, 2, 8, 12, 40, 500):
            report = solve_all(tensorcore.Tensor3(np.ldexp(B.data, j)), seed=84)
            assert (report.complete, report.real_count, report.route) == (True, base.real_count, base.route), j
            if abs(j) > solver.SCALE_BAND:
                assert report.solutions.tobytes() == base.solutions.tobytes()
                assert np.array_equal(report.residuals, np.ldexp(base.residuals, j))

    def test_band_edges(self):
        # the shift brings the largest entry nearest 1, and only beyond the band
        k = solver.SCALE_BAND
        assert solver._unit_shift(np.full((2, 2, 2), 2.0**k)) == 0
        assert solver._unit_shift(np.full((2, 2, 2), 2.0**-k)) == 0
        assert solver._unit_shift(np.full((2, 2, 2), -(2.0 ** (k + 1)))) == -(k + 1)
        assert solver._unit_shift(np.full((2, 2, 2), 3 * 2.0**-40)) == 38
        assert solver._unit_shift(np.zeros((2, 2, 2))) == 0


def _eigen_endpoints(Y, c, rng):
    # every kernel pair of Y as one eigenvalue problem, with no tracking.  On
    # a_m = -1 the system is (A_0 + a_1 A_1 + ... + a_k A_k) b = 0, k = m-1.
    # Over the k-subsets r of the u rows, M_0[r, s] is the minor of
    # [A_1 x_s, ..., A_k x_s] at sample x_s and M_i the same with column i
    # replaced by -A_0 x_s; by Cramer's rule a solution's minors satisfy
    # M_i y = a_i M_0 y, so the eigenvectors y of M_0^-1 (w . M) give every
    # a.  Then b spans the kernel of M(a, Y) on c . b = 1, and three Newton
    # steps on [M(a, Y) b ; c . b - 1] polish (a_1..a_k, b).
    u, n, m = Y.shape
    k, N = m - 1, math.comb(u, m - 1)
    rows = list(itertools.combinations(range(u), k))
    x, w = rng.standard_normal((N, n)), rng.standard_normal(k)
    cols = np.stack([x @ Y.data[:, :, i].T for i in range(k)], axis=2)  # (N, u, k)
    M = [np.linalg.det(cols[:, rows]).T]
    for i in range(k):
        C = cols.copy()
        C[:, :, i] = x @ Y.data[:, :, m - 1].T  # -A_0 x_s
        M.append(np.linalg.det(C[:, rows]).T)
    _, y = np.linalg.eig(np.linalg.solve(M[0], sum(wi * Mi for wi, Mi in zip(w, M[1:]))))
    M0y = M[0] @ y
    a = [np.sum(M0y.conj() * (Mi @ y), axis=0) / np.sum(np.abs(M0y) ** 2, axis=0) for Mi in M[1:]]
    a = np.stack(a + [-np.ones(N)], axis=1).astype(complex)
    b = np.linalg.svd(tensorcore.pencil_eval(a, Y))[2][:, -1].conj()
    b = b / (b @ c)[:, None]
    for _ in range(3):
        J = np.zeros((N, u + 1, k + n), dtype=complex)
        J[:, :u, :k] = np.einsum("ijk,pj->pik", Y.data[:, :, :k], b)
        J[:, :u, k:] = tensorcore.pencil_eval(a, Y)
        J[:, u, k:] = c
        F = np.concatenate([(J[:, :u, k:] @ b[..., None])[..., 0], b @ c[:, None] - 1], axis=1)
        dz = np.linalg.solve(J, F[..., None])[..., 0]
        a[:, :k] -= dz[:, :k]
        b = b - dz[:, k:]
    return np.concatenate([a, b], axis=1)


class TestEigenvalueOracle:
    @pytest.mark.parametrize("m,n", [(3, 3), (3, 5), (4, 4), (5, 5)])
    def test_solve_all_matches_the_eigenvalue_endpoints(self, m, n):
        # Gaussian kernel targets; the checks hold whether or not a solve is
        # complete, and the real counts are compared where it is
        u = tensorcore.Format(m, n).u
        for trial in range(2):
            rng = np.random.default_rng((71, m, n, trial))
            Y = tensorcore.Tensor3(rng.standard_normal((u, n, m)))
            report = solve_all(Y, seed=trial)
            E = _eigen_endpoints(Y, report.chart_b, rng)
            assert len(E) == math.comb(u, m - 1)
            i, j = solver.close_pairs(E, E)
            assert np.array_equal(i, j)  # pairwise farther apart than DEDUP_TOL
            i, j = solver.close_pairs(E, report.solutions)
            assert np.bincount(j, minlength=len(report.solutions)).tolist() == [1] * len(report.solutions)
            if report.complete:
                assert projectively_real(E[:, :m], E[:, m:], solver.REALITY_TOL).sum() == report.real_count


def _pairwise_first_kept(z):
    # the per-path scan that _first_kept replaces: one max-norm distance to
    # every endpoint kept so far
    keep, named = [], {}
    for idx in range(len(z)):
        near = np.flatnonzero(np.max(np.abs(z[keep] - z[idx]), axis=1) < solver.DEDUP_TOL)
        if near.size:
            named[idx] = keep[near[0]]
        else:
            keep.append(idx)
    return keep, named


class TestFirstKept:
    def test_chain_keeps_its_far_end(self):
        # a ~ b ~ c with a and c farther apart than DEDUP_TOL: b collides
        # with a and is dropped, so c collides with no kept endpoint
        tol = solver.DEDUP_TOL
        z = np.random.default_rng(40).standard_normal((5, 4)) + 0j
        z[2] = z[0] + 0.6 * tol
        z[4] = z[2] + 0.6 * tol
        kept, named = solver._first_kept(z)
        assert np.flatnonzero(kept).tolist() == [0, 1, 3, 4]
        assert named == {2: 0}
        assert _pairwise_first_kept(z) == ([0, 1, 3, 4], {2: 0})

    def test_matches_the_pairwise_scan(self):
        tol = solver.DEDUP_TOL
        rng = np.random.default_rng(41)
        for _ in range(30):
            P, N = int(rng.integers(1, 80)), int(rng.integers(1, 9))
            z = rng.standard_normal((P, N)) + 1j * rng.standard_normal((P, N))
            for _ in range(int(rng.integers(0, 12))):
                i, j, k = rng.integers(0, P, 3)
                kind = rng.integers(0, 5)
                if kind == 0:  # a link just inside or just outside
                    z[j] = z[i] + rng.choice([0.4, 0.99, 1.01]) * tol * np.exp(2j * np.pi * rng.random())
                elif kind == 4:  # a chain i ~ j ~ k with i and k apart
                    step = 0.6 * tol * np.exp(2j * np.pi * rng.random())
                    z[j] = z[i] + step
                    z[k] = z[j] + step
                elif kind == 1:  # an exact repeat
                    z[j] = z[i]
                elif kind == 2:  # same sort key, far in another coordinate
                    z[j, 0] = z[i, 0]
                else:  # close in the sort key only
                    z[j, 0] = z[i, 0] + 0.5 * tol
            kept, named = solver._first_kept(z)
            keep, named_ref = _pairwise_first_kept(z)
            assert np.flatnonzero(kept).tolist() == keep
            assert named == named_ref


class TestClosePairs:
    def test_matches_every_pair(self):
        # every (i, j) of the full max-norm distance matrix under the
        # tolerance, including pairs whose sort keys differ by just under
        # it and pairs with equal keys that are far apart
        tol = solver.DEDUP_TOL
        rng = np.random.default_rng(42)
        for _ in range(40):
            P, Q, N = int(rng.integers(0, 40)), int(rng.integers(0, 40)), int(rng.integers(1, 6))
            z = rng.standard_normal((P, N)) + 1j * rng.standard_normal((P, N))
            w = rng.standard_normal((Q, N)) + 1j * rng.standard_normal((Q, N))
            for j in range(Q if P else 0):
                i = int(rng.integers(0, P))
                w[j] = z[i] + rng.choice([0.0, 0.5, 0.999, 1.001, 3.0]) * tol * np.exp(2j * np.pi * rng.random())
                if rng.random() < 0.2:
                    w[j, -1] += 1.0
            dist = np.max(np.abs(z[:, None, :] - w[None, :, :]), axis=2)
            i, j = solver.close_pairs(z, w)
            assert sorted(zip(i.tolist(), j.tolist())) == sorted(zip(*map(list, np.nonzero(dist < tol))))


def _align(v):
    return v / v[int(np.argmax(np.abs(v)))]


class TestRealFilter:
    def test_start_solutions_3_3(self):
        z = start_solutions(3, 3, seed=16).solutions
        assert np.count_nonzero(projectively_real(z[:, :3], z[:, 3:], 1e-8)) == 2

    def test_conjugate_pair_symmetric(self):
        report = start_solutions(3, 3, seed=17)
        complexes = report.solutions[~report.real]
        # pair each complex solution with its conjugate partner
        for s in complexes:
            partner = [
                s2 for s2 in complexes
                if np.max(np.abs(np.conj(_align(s[:3])) - _align(s2[:3]))) < 1e-9
            ]
            assert len(partner) == 1

    def test_purely_real_accepted_at_any_tol(self):
        a = np.array([[0.5 + 0j, -0.5 + 0j, -1.0 + 0j]])
        b = np.array([[1.0 + 0j, 2.0 + 0j, 3.0 + 0j]])
        assert np.array_equal(projectively_real(a, b, 1e-300), [True])
