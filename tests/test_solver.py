import math

import numpy as np
import pytest

from semitall import polyfactor, solver, tensorcore
from semitall.errors import CHART_ESCAPE, PATH_STALL, WARN_MULTIPLICITY, ResourceLimitError
from semitall.solver import SolveReport, TrackOptions, projectively_real, solve_all, start_solutions, track_path


def perturbed_target(m, n, eps, seed):
    frame = tensorcore.make_start_frame(m, n)
    rng = np.random.default_rng(seed)
    return frame, tensorcore.Tensor3(frame.Aprime.data + eps * rng.standard_normal(frame.Aprime.shape))


class TestStartSolutions:
    @pytest.mark.parametrize("m,n,paths,nreal", [(3, 3, 6, 2), (3, 4, 10, 2), (4, 4, 20, 0)])
    def test_counts_and_reality(self, m, n, paths, nreal):
        sols = start_solutions(m, n, seed=(1, m, n))
        assert len(sols) == paths
        assert sum(s.is_real for s in sols) == nreal
        assert nreal == polyfactor.alpha_closed(m, n)

    def test_residuals_tiny(self):
        for m, n in [(3, 3), (3, 5), (4, 5)]:
            sols = start_solutions(m, n, seed=2)
            assert max(s.residual for s in sols) < 1e-10

    def test_chart_conventions(self):
        sols = start_solutions(3, 4, seed=3)
        for s in sols:
            assert s.a[-1] == -1.0 + 0.0j
            assert isinstance(s.source, tuple) and len(s.source) == 2

    def test_real_flags_match_numeric_filter(self):
        sols = start_solutions(4, 5, seed=4)
        for s in sols:
            assert projectively_real(s.a, s.b, 1e-8) == s.is_real

    def test_mutating_a_start_solution_leaves_the_next_call(self):
        first = start_solutions(3, 4, seed=3)
        a, b = first[0].a.copy(), first[0].b.copy()
        first[0].a[:] = 7.0
        first[0].b[:] = 7.0
        again = start_solutions(3, 4, seed=3)
        assert np.array_equal(again[0].a, a)
        assert np.array_equal(again[0].b, b)

    def test_path_budget(self):
        # C(28, 14) is far beyond the path budget
        with pytest.raises(ResourceLimitError):
            start_solutions(15, 15)


class TestTrackPath:
    def test_identity_path_returns_start(self):
        frame = tensorcore.make_start_frame(3, 3)
        s0 = start_solutions(3, 3, seed=5)[0]
        opts = TrackOptions(gamma=1.0 + 0.0j)
        out = track_path(frame.Aprime, frame.Aprime, s0, opts)
        assert np.max(np.abs(out.a - s0.a)) < 1e-8
        assert np.max(np.abs(out.b - s0.b)) < 1e-8
        assert out.residual < 1e-10

    def test_small_perturbation_endpoints(self):
        frame, target = perturbed_target(3, 3, 1e-3, seed=6)
        rng = np.random.default_rng(6)
        c = rng.standard_normal(3)
        c /= np.linalg.norm(c)
        opts = TrackOptions(gamma=complex(0.28, 0.96))
        for s0 in start_solutions(3, 3, c=c):
            out = track_path(frame.Aprime, target, s0, opts, c=c)
            assert out.residual < 1e-9
            # endpoint stays near its start for a small perturbation
            assert np.max(np.abs(out.a - s0.a)) < 0.1

    def test_shape_mismatch(self):
        frame = tensorcore.make_start_frame(3, 3)
        other = tensorcore.make_start_frame(3, 4)
        s0 = start_solutions(3, 3, seed=1)[0]
        with pytest.raises(ValueError):
            track_path(frame.Aprime, other.Aprime, s0, TrackOptions())

    def test_gamma_required(self):
        frame = tensorcore.make_start_frame(3, 3)
        s0 = start_solutions(3, 3, seed=1)[0]
        with pytest.raises(ValueError):
            track_path(frame.Aprime, frame.Aprime, s0, TrackOptions())


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
        starts = start_solutions(m, n, c=c)
        z0 = np.array([np.concatenate([s.a, s.b]) for s in starts])
        z0_bad = np.insert(z0, 3, 0.0, axis=0)
        opts = TrackOptions(gamma=complex(0.6, -0.8))

        def run(z):
            d = np.zeros((len(z), m))
            d[:, -1] = 1.0
            charts = solver._charts(np.broadcast_to(c, (len(z), n)), d)
            return solver._Lockstep(frame.Aprime.data, target.data, opts.gamma, opts.corrector_tol).run(z, charts, -1.0)

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
        tracker.chart_rhs = np.array([-1.0, 1.0], dtype=complex)
        d = np.zeros(m)
        d[-1] = 1.0
        return frame, target, tracker, c, d

    def test_corrector_rows_leave_alone(self):
        # one mixed stack: every row ends as it would alone, and a row that
        # leaves (converged, broken down or singular) is not touched again
        m, n = 3, 4
        _, _, tracker, c, d = self._tracker(m, n, seed=37)
        rng = np.random.default_rng(37)
        starts = start_solutions(m, n, c=c)
        start = np.concatenate([starts[0].a, starts[0].b])
        near = np.concatenate([starts[1].a, starts[1].b])
        near = near + 1e-6 * (rng.standard_normal(m + n) + 1j * rng.standard_normal(m + n))
        near[m - 1] = -1.0  # stay on both charts, so only the top rows are off
        near[m:] /= c @ near[m:]
        far = rng.standard_normal(m + n) + 1j * rng.standard_normal(m + n)
        huge = np.full(m + n, 1e6, dtype=complex)
        rows = {"start": start, "nan": np.full(m + n, np.nan + 0j), "near": near,
                "huge": huge, "zero": np.zeros(m + n, dtype=complex), "far": far}
        z = np.array(list(rows.values()))
        t = np.zeros(len(z))
        charts = solver._charts(np.broadcast_to(c, (len(z), n)), np.broadcast_to(d, (len(z), m)))
        out, ok, moved = tracker._correct(z, t, charts, 3)
        got = {name: (out[i], ok[i], moved[i]) for i, name in enumerate(rows)}
        assert np.array_equal(z, np.array(list(rows.values())), equal_nan=True)  # input untouched

        assert got["start"][1] and got["start"][2] == 0.0
        assert np.array_equal(got["start"][0], start)
        assert got["near"][1] and got["near"][2] > 0.0
        alone, ok_alone, moved_alone = tracker._correct(near[None], t[:1], charts[:1], 3)
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
        assert not tracker._correct(huge[None], t[:1], charts[:1], 60)[1][0]

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
        k, ok = tracker._tangent(z, t, charts)
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


class TestSolveAll:
    def test_recovers_start_system(self):
        frame = tensorcore.make_start_frame(3, 3)
        report = solve_all(frame.Aprime, seed=7)
        assert report.n_paths == 6
        assert report.complete
        assert report.real_count == 2
        starts = {s.source for s in start_solutions(3, 3)}
        assert len(report.solutions) == len(starts)

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
                        np.max(np.abs(np.conj(s.a) - s2.a)) < 1e-6
                        and np.max(np.abs(_align(np.conj(s.b)) - _align(s2.b))) < 1e-6
                        for s2 in report.solutions
                    )
                    assert conj_found

    def test_determinism(self):
        _, target = perturbed_target(3, 3, 1e-2, seed=10)
        r1 = solve_all(target, seed=11)
        r2 = solve_all(target, seed=11)
        assert r1.gamma == r2.gamma
        for s1, s2 in zip(r1.solutions, r2.solutions):
            assert np.array_equal(s1.a, s2.a)
            assert np.array_equal(s1.b, s2.b)

    def test_lockstep_matches_single_path_tracking(self):
        # the batch must not couple paths: each endpoint equals the one its
        # start reaches when tracked alone (P = 1)
        for m, n, seed in [(3, 4, 21), (4, 4, 22)]:
            rng = np.random.default_rng(seed)
            target = tensorcore.Tensor3(rng.standard_normal((m + n - 2, n, m)))
            report = solve_all(target, seed=seed)
            assert report.complete
            frame = tensorcore.make_start_frame(m, n)
            starts = start_solutions(m, n, c=report.chart_b)
            opts = TrackOptions(gamma=report.gamma)
            for s in report.solutions:
                alone = track_path(frame.Aprime, target, starts[s.path_index], opts, c=report.chart_b)
                assert np.max(np.abs(alone.a - s.a)) < 1e-10
                assert np.max(np.abs(alone.b - s.b)) < 1e-10

    def test_batches_of_whole_paths_match_one_batch(self, monkeypatch):
        _, target = perturbed_target(4, 4, 1e-2, seed=31)
        one = solve_all(target, seed=32)
        monkeypatch.setattr(solver, "STACK_ENTRIES", 3 * 8**2)  # 3 paths a batch
        split = solve_all(target, seed=32)
        assert [s.path_index for s in split.solutions] == [s.path_index for s in one.solutions]
        for s1, s2 in zip(one.solutions, split.solutions):
            assert np.max(np.abs(s1.a - s2.a)) < 1e-10
            assert np.max(np.abs(s1.b - s2.b)) < 1e-10

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
        ends = [(s.a.copy(), s.b.copy()) for s in first.solutions]
        for s in first.solutions:
            s.a[:] = 7.0
            s.b[:] = 7.0
        again = solve_all(target, seed=36)
        for s, (a, b) in zip(again.solutions, ends):
            assert np.array_equal(s.a, a)
            assert np.array_equal(s.b, b)

    def test_step_budget_fails_every_path(self, monkeypatch):
        _, target = perturbed_target(3, 4, 1e-2, seed=23)
        monkeypatch.setattr(solver, "MAX_STEPS", 2)
        report = solve_all(target, seed=24)
        assert not report.solutions
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
        # the tracker silences floating-point flags only inside its own
        # stages: the caller's error state holds before and after, and no
        # arithmetic outside those stages trips it
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
        assert [s.path_index for s in report.solutions] == [0]
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
                dist = max(np.max(np.abs(s.a - s2.a)), np.max(np.abs(s.b - s2.b)))
                assert dist > 1e-6

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


def _align(v):
    return v / v[int(np.argmax(np.abs(v)))]


class TestRealFilter:
    def test_start_solutions_3_3(self):
        sols = start_solutions(3, 3, seed=16)
        assert sum(projectively_real(s.a, s.b, 1e-8) for s in sols) == 2

    def test_conjugate_pair_symmetric(self):
        sols = start_solutions(3, 3, seed=17)
        complexes = [s for s in sols if not s.is_real]
        # pair each complex solution with its conjugate partner
        for s in complexes:
            partner = [
                s2 for s2 in complexes
                if np.max(np.abs(np.conj(_align(s.a)) - _align(s2.a))) < 1e-9
            ]
            assert len(partner) == 1

    def test_purely_real_accepted_at_any_tol(self):
        a = np.array([0.5 + 0j, -0.5 + 0j, -1.0 + 0j])
        b = np.array([1.0 + 0j, 2.0 + 0j, 3.0 + 0j])
        assert projectively_real(a, b, 1e-300)


class TestTrackOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrackOptions(corrector_tol=0.0)

    @pytest.mark.parametrize("tol", [1e-15, 3e-16, 4.9e-15, math.nan])
    def test_tolerance_below_the_floor_is_refused(self, tol):
        with pytest.raises(ValueError, match="corrector_tol must be at least 5e-15"):
            TrackOptions(corrector_tol=tol)

    def test_no_path_stalls_at_the_floor(self):
        # the floor is the smallest tolerance the corrector meets: at it,
        # Gaussian targets of the measured formats track every path
        for m, n in [(3, 3), (3, 4), (4, 4)]:
            for seed in range(5):
                u = m + n - 2
                B = tensorcore.Tensor3(np.random.default_rng((seed, m, n)).standard_normal((u, n, m)))
                report = solve_all(B, TrackOptions(corrector_tol=solver.MIN_CORRECTOR_TOL), seed=seed)
                assert PATH_STALL not in {f.reason for f in report.failures}, (m, n, seed)
        with pytest.raises(ValueError):
            TrackOptions(gamma=0.0 + 0.0j)
