import math

import numpy as np
import pytest

from semitall import acceptance, polyfactor, solver, tensorcore
from semitall.errors import CHART_ESCAPE, PATH_STALL, WARN_MULTIPLICITY, DegenerateStartError, ResourceLimitError
from semitall.solver import SolveReport, projectively_real, solve_all, start_solutions, track_path


def perturbed_target(m, n, eps, seed):
    frame = tensorcore.make_start_frame(m, n)
    rng = np.random.default_rng(seed)
    return frame, tensorcore.Tensor3(frame.Aprime.data + eps * rng.standard_normal(frame.Aprime.shape))


def endpoint_residual(B, z, m):
    # 2-norm of M(a, B) b at one row z = (a, b)
    return solver._residuals(B, z[None, :m], z[None, m:])[0]


class TestStartSolutions:
    @pytest.mark.parametrize("m,n,paths,nreal", [(3, 3, 6, 2), (3, 4, 10, 2), (4, 4, 20, 0)])
    def test_counts_and_reality(self, m, n, paths, nreal):
        z, _, real, _ = start_solutions(m, n, seed=(1, m, n))
        assert len(z) == paths
        assert real.sum() == nreal
        assert nreal == polyfactor.alpha_closed(m, n)

    def test_residuals_tiny(self):
        for m, n in [(3, 3), (3, 5), (4, 5)]:
            _, residuals, _, _ = start_solutions(m, n, seed=2)
            assert residuals.max() < 1e-10

    @pytest.mark.parametrize("m,n", acceptance.CRITERION_6_FORMATS)
    def test_real_rows_are_the_divisor_table(self, m, n):
        # the real start rows are the real divisor points, slice-reordered
        # and scaled onto a_m = -1, in closed_selections order
        u = m + n - 2
        z, _, real, subsets = start_solutions(m, n, seed=(8, m, n))
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
        _, a_rows, _, real, subsets = solver._start_system(m, n)
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
        frame, a_rows, kernels, _, _ = solver._start_system(m, n)
        pencils = tensorcore.pencil_eval(a_rows, frame.Aprime)
        _, svals, Vh = np.linalg.svd(pencils)
        assert np.max(np.abs(np.linalg.norm(kernels, axis=1) - 1.0)) < 1e-15
        assert np.abs(np.sum(Vh[:, -1] * kernels, axis=1)).min() >= 1 - 1e-14
        assert np.linalg.norm((pencils @ kernels[..., None])[..., 0], axis=1).max() <= 1e-13
        # the kernel is one-dimensional, with room to spare
        assert (svals[:, -2] / svals[:, 0]).min() >= 1e-3

    def test_chart_orthogonal_to_a_kernel_names_its_subset(self):
        kernels = solver._start_system(3, 3)[2]
        c = np.array([kernels[0, 1], -kernels[0, 0], 0.0])  # kernels[0] @ c == 0
        with pytest.raises(DegenerateStartError, match=r"^chart vector nearly orthogonal to the kernel at \(0, 1\)$"):
            start_solutions(3, 3, c=c)

    def test_chart_conventions(self):
        z, _, _, subsets = start_solutions(3, 4, seed=3)
        assert len(subsets) == len(z)
        for row, subset in zip(z, subsets):
            assert row[2] == -1.0 + 0.0j
            assert isinstance(subset, tuple) and len(subset) == 2

    def test_real_flags_match_numeric_filter(self):
        z, _, real, _ = start_solutions(4, 5, seed=4)
        for row, flag in zip(z, real):
            assert projectively_real(row[:4], row[4:], 1e-8) == flag

    def test_mutating_a_start_solution_leaves_the_next_call(self):
        first = start_solutions(3, 4, seed=3)
        kept = [arr.copy() for arr in first[:3]]
        for arr in first[:3]:
            arr[0] = 7.0
        again = start_solutions(3, 4, seed=3)
        for arr, before in zip(again[:3], kept):
            assert np.array_equal(arr, before)

    def test_path_budget(self):
        # C(28, 14) is far beyond the path budget
        with pytest.raises(ResourceLimitError):
            start_solutions(15, 15)


class TestTrackPath:
    def test_identity_path_returns_start(self):
        frame = tensorcore.make_start_frame(3, 3)
        z0 = start_solutions(3, 3, seed=5)[0][0]
        out = track_path(frame.Aprime, frame.Aprime, z0, 1.0 + 0.0j)
        assert np.max(np.abs(out[:3] - z0[:3])) < 1e-8
        assert np.max(np.abs(out[3:] - z0[3:])) < 1e-8
        assert endpoint_residual(frame.Aprime, out, 3) < 1e-10

    def test_small_perturbation_endpoints(self):
        frame, target = perturbed_target(3, 3, 1e-3, seed=6)
        rng = np.random.default_rng(6)
        c = rng.standard_normal(3)
        c /= np.linalg.norm(c)
        for z0 in start_solutions(3, 3, c=c)[0]:
            out = track_path(frame.Aprime, target, z0, complex(0.28, 0.96), c=c)
            assert endpoint_residual(target, out, 3) < 1e-9
            # endpoint stays near its start for a small perturbation
            assert np.max(np.abs(out[:3] - z0[:3])) < 0.1

    def test_shape_mismatch(self):
        frame = tensorcore.make_start_frame(3, 3)
        other = tensorcore.make_start_frame(3, 4)
        z0 = start_solutions(3, 3, seed=1)[0][0]
        with pytest.raises(ValueError):
            track_path(frame.Aprime, other.Aprime, z0, 1.0 + 0.0j)

    def test_gamma_required(self):
        # gamma is a required argument, and the tracker refuses a zero one
        frame = tensorcore.make_start_frame(3, 3)
        z0 = start_solutions(3, 3, seed=1)[0][0]
        with pytest.raises(TypeError):
            track_path(frame.Aprime, frame.Aprime, z0)
        with pytest.raises(ValueError, match="gamma must be nonzero"):
            track_path(frame.Aprime, frame.Aprime, z0, 0.0 + 0.0j)


class TestLockstep:
    def test_singular_row_fails_alone(self):
        rng = np.random.default_rng(27)
        A = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        A[2] = 0.0
        rhs = rng.standard_normal((4, 5)) + 0j
        with np.errstate(invalid="ignore"):
            x = solver._solve_rows(A, rhs)
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
            x = solver._solve_rows(A, rhs)
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
        c = solver._chart_vector(n, np.random.default_rng(28))
        z0 = start_solutions(m, n, c=c)[0]
        z0_bad = np.insert(z0, 3, 0.0, axis=0)

        def run(z):
            d = np.zeros((len(z), m))
            d[:, -1] = 1.0
            charts = solver._charts(np.broadcast_to(c, (len(z), n)), d)
            tracker = solver._Lockstep(frame.Aprime.data, target.data, complex(0.6, -0.8), solver.CORRECTOR_TOL)
            return tracker.run(z, charts, -1.0)

        z_ref, failed_ref = run(z0)
        z_bad, failed_bad = run(z0_bad)
        assert not failed_ref
        assert list(failed_bad) == [3]
        assert failed_bad[3].reason == PATH_STALL
        assert "singular tangent" in str(failed_bad[3])
        assert np.max(np.abs(np.delete(z_bad, 3, axis=0) - z_ref)) < 1e-10

    @staticmethod
    def _tracker(m, n, seed):
        frame, target = perturbed_target(m, n, 1e-1, seed=seed)
        c = solver._chart_vector(n, np.random.default_rng(seed))
        tracker = solver._Lockstep(frame.Aprime.data, target.data, complex(0.6, -0.8), 1e-12)
        tracker.rhs_full = np.append(np.zeros(tracker.u), [-1.0, 1.0]).astype(complex)
        d = np.zeros(m)
        d[-1] = 1.0
        return frame, target, tracker, c, d

    def test_corrector_rows_leave_alone(self):
        # one mixed stack: every row ends as it would alone, and a row that
        # leaves (converged, broken down or singular) is not touched again
        m, n = 3, 4
        _, _, tracker, c, d = self._tracker(m, n, seed=37)
        rng = np.random.default_rng(37)
        starts = start_solutions(m, n, c=c)[0]
        start = starts[0]
        near = starts[1] + 1e-6 * (rng.standard_normal(m + n) + 1j * rng.standard_normal(m + n))
        near[m - 1] = -1.0  # stay on both charts, so only the top rows are off
        near[m:] /= c @ near[m:]
        far = rng.standard_normal(m + n) + 1j * rng.standard_normal(m + n)
        huge = np.full(m + n, 1e6, dtype=complex)
        rows = {"start": start, "nan": np.full(m + n, np.nan + 0j), "near": near,
                "huge": huge, "zero": np.zeros(m + n, dtype=complex), "far": far}
        z = np.array(list(rows.values()))
        t = np.zeros(len(z))
        charts = solver._charts(np.broadcast_to(c, (len(z), n)), np.broadcast_to(d, (len(z), m)))
        # run() silences the floating-point flags of the NaN, huge and zero rows
        with np.errstate(all="ignore"):
            out, ok, moved = tracker._correct(tracker._stack(charts), z, t, 3)
            alone, ok_alone, moved_alone = tracker._correct(tracker._stack(charts[:1]), near[None], t[:1], 3)
            huge_ok = tracker._correct(tracker._stack(charts[:1]), huge[None], t[:1], 60)[1][0]
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

    def test_tangent_solves_the_t_derivative(self):
        # J(z, t) k = -dF/dt, with dF/dt = M(a, B_to - gamma B_from) b and
        # the Jacobian written out entry by entry
        m, n = 3, 4
        frame, target, tracker, c, d = self._tracker(m, n, seed=38)
        rng = np.random.default_rng(38)
        P = 4
        z = rng.standard_normal((P, m + n)) + 1j * rng.standard_normal((P, m + n))
        t = rng.uniform(0.0, 1.0, P)
        charts = solver._charts(np.broadcast_to(c, (P, n)), np.broadcast_to(d, (P, m)))
        k, ok = tracker._tangent(tracker._stack(charts), z, t)
        assert ok.all()

        gamma = complex(0.6, -0.8)
        B_from, B_to = frame.Aprime.data, target.data
        a, b = z[:, :m], z[:, m:]
        dF = np.einsum("ijk,pj,pk->pi", B_to - gamma * B_from, b, a)
        Bt = gamma * B_from[None] + t[:, None, None, None] * (B_to - gamma * B_from)[None]
        J = np.concatenate([
            np.concatenate([np.einsum("pijk,pj->pik", Bt, b), np.einsum("pijk,pk->pij", Bt, a)], axis=2),
            charts,
        ], axis=1)
        lhs = np.einsum("pij,pj->pi", J, k)
        rhs = np.concatenate([-dF, np.zeros((P, 2))], axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("P", [0, 1, 6, 70])
    def test_jacobian_buffer_matches_a_fresh_build(self, P):
        # the top rows written in place into a stack's buffer equal, bit for
        # bit, a fresh product of the same height joined to the chart rows,
        # also after the stack is gathered
        m, n = 5, 5
        _, _, tracker, c, d = self._tracker(m, n, seed=39)
        rng = np.random.default_rng(39)
        z = rng.standard_normal((P, m + n)) + 1j * rng.standard_normal((P, m + n))
        t = rng.uniform(0.0, 1.0, P)
        charts = solver._charts(np.broadcast_to(c, (P, n)), np.broadcast_to(d, (P, m)))

        def fresh(z, t, charts):
            zz = np.concatenate([z, t[:, None] * z], axis=1)
            return np.concatenate([(zz @ tracker.L).reshape(len(z), tracker.u, tracker.N), charts], axis=1)

        J = tracker._stack(charts)
        tracker._build(J, z, t)
        assert J.shape == (P, tracker.u + 2, tracker.N)
        assert J.tobytes() == fresh(z, t, charts).tobytes()
        keep = rng.random(P) < 0.5
        J = J[keep]
        tracker._build(J, z[keep] + 1.0, t[keep])
        assert J.tobytes() == fresh(z[keep] + 1.0, t[keep], charts[keep]).tobytes()


class TestSolveAll:
    def test_recovers_start_system(self):
        frame = tensorcore.make_start_frame(3, 3)
        report = solve_all(frame.Aprime, seed=7)
        assert report.n_paths == 6
        assert report.complete
        assert report.real_count == 2
        subsets = set(start_solutions(3, 3)[3])
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
        assert np.array_equal(report.residuals, solver._residuals(target, z[:, :m], z[:, m:]))

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
            starts = start_solutions(m, n, c=report.chart_b)[0]
            for z, idx in zip(report.solutions, report.path_index):
                alone = track_path(frame.Aprime, target, starts[idx], report.gamma, c=report.chart_b)
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
        # ceiling of INITIAL_STEP would need 1 / INITIAL_STEP = 20
        _, target = perturbed_target(3, 5, 1e-3, seed=33)
        monkeypatch.setattr(solver, "MAX_STEPS", 15)
        report = solve_all(target, seed=34)
        assert report.complete
        assert report.real_count == polyfactor.alpha_closed(3, 5)

    def test_mutating_endpoints_leaves_the_next_call(self):
        _, target = perturbed_target(3, 4, 1e-2, seed=35)
        first = solve_all(target, seed=36)
        ends = first.solutions.copy()
        first.solutions[:] = 7.0
        again = solve_all(target, seed=36)
        assert np.array_equal(again.solutions, ends)

    def test_step_budget_fails_every_path(self, monkeypatch):
        _, target = perturbed_target(3, 4, 1e-2, seed=23)
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
        z = start_solutions(3, 3, seed=16)[0]
        assert sum(projectively_real(s[:3], s[3:], 1e-8) for s in z) == 2

    def test_conjugate_pair_symmetric(self):
        z, _, real, _ = start_solutions(3, 3, seed=17)
        complexes = z[~real]
        # pair each complex solution with its conjugate partner
        for s in complexes:
            partner = [
                s2 for s2 in complexes
                if np.max(np.abs(np.conj(_align(s[:3])) - _align(s2[:3]))) < 1e-9
            ]
            assert len(partner) == 1

    def test_purely_real_accepted_at_any_tol(self):
        a = np.array([0.5 + 0j, -0.5 + 0j, -1.0 + 0j])
        b = np.array([1.0 + 0j, 2.0 + 0j, 3.0 + 0j])
        assert projectively_real(a, b, 1e-300)


class TestTrackOptions:
    # the tracker's corrector_tol keyword, refused below the floor by both
    # entry points, solve_all and track_path
    @staticmethod
    def _refuse(tol, match):
        frame = tensorcore.make_start_frame(3, 3)
        z0 = start_solutions(3, 3, seed=1)[0][0]
        with pytest.raises(ValueError, match=match):
            solve_all(frame.Aprime, corrector_tol=tol)
        with pytest.raises(ValueError, match=match):
            track_path(frame.Aprime, frame.Aprime, z0, 1.0 + 0.0j, corrector_tol=tol)

    def test_validation(self):
        self._refuse(0.0, "corrector_tol")

    @pytest.mark.parametrize("tol", [1e-15, 3e-16, 4.9e-15, math.nan])
    def test_tolerance_below_the_floor_is_refused(self, tol):
        self._refuse(tol, "corrector_tol must be at least 5e-15")

    def test_no_path_stalls_at_the_floor(self):
        # the floor is the smallest tolerance the corrector meets: at it,
        # Gaussian targets of the measured formats track every path
        for m, n in [(3, 3), (3, 4), (4, 4)]:
            for seed in range(5):
                u = m + n - 2
                B = tensorcore.Tensor3(np.random.default_rng((seed, m, n)).standard_normal((u, n, m)))
                report = solve_all(B, seed=seed, corrector_tol=solver.MIN_CORRECTOR_TOL)
                assert PATH_STALL not in {f.reason for f in report.failures}, (m, n, seed)
