import dataclasses
import time

import numpy as np
import pytest

from semitall import certifier, solver, tensorcore
from semitall.certifier import (
    INCONCLUSIVE,
    RANK_GT_P,
    RANK_P,
    certify,
    global_experiment,
    perturb_experiment,
)
from semitall.errors import ChartViolationError, ResourceLimitError
from semitall.tensorcore import Format, Tensor3, make_start_frame, random_rank_sum, tau

# seeds outside the documented types: a nonnegative integer, or a tuple or
# list of them
BAD_SEEDS = [None, 1.5, "x", -1, True, (1, -2), (1, 2.5), [None]]
# span tolerances that would move a verdict: NaN or inf keeps no singular
# value, so a rank-p tensor would read RANK_GT_P with dim_u 0.  SPAN_TOL is
# a constant, and no entry point takes a span_tol keyword.
BAD_SPAN_TOLS = [np.nan, np.inf, -np.inf, 0.0]


def _refuse_solving(*args, **kwargs):
    raise AssertionError("solve_all called")


def _refuse_work(*args, **kwargs):
    raise AssertionError("work began before the path budget check")


class TestCertify:
    def test_perturbed_frame_is_rank_gt_p(self):
        fmt = Format(3, 5)
        frame = make_start_frame(3, 5)
        rng = np.random.default_rng(21)
        W = frame.W0 + 1e-3 * rng.standard_normal((fmt.u, fmt.p))
        cert = certify(tau(W, fmt), seed=21)
        assert cert.verdict == RANK_GT_P
        assert cert.dim_u <= 3  # the real-divisor count of this format
        assert cert.paths_failed == 0

    def test_rank_p_sum_is_rank_p(self):
        fmt = Format(3, 3)
        rng = np.random.default_rng(22)
        T = random_rank_sum(fmt, fmt.p, rng)
        cert = certify(T, seed=22)
        assert cert.verdict == RANK_P
        assert cert.dim_u == fmt.p
        assert cert.real_points == cert.n_paths == 6

    def test_chart_violation_refused(self):
        fmt = Format(3, 3)
        T = Tensor3(np.zeros((fmt.n, fmt.p, fmt.m)))
        T.data[:, :, 1:] = 1.0  # the leading p x p block of fl2 has rank 1
        with pytest.raises(ChartViolationError):
            certify(T)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
    @pytest.mark.parametrize("entry", [(0, 0, 0), (2, 4, 2)], ids=["leading", "trailing"])
    def test_non_finite_entry_refused_before_solving(self, entry, value, monkeypatch):
        # (0, 0, 0) is in the leading p x p block of fl2, which sigma inverts,
        # and (2, 4, 2) in the block below it; the count is T's own
        monkeypatch.setattr(solver, "solve_all", _refuse_solving)
        T = random_rank_sum(Format(3, 3), 5, np.random.default_rng(0))
        T.data[entry] = value
        with pytest.raises(ValueError, match=r"^tensor has 1 non-finite entries$"):
            certify(T)
        T.data[1, 1, 1] = np.nan
        with pytest.raises(ValueError, match=r"^tensor has 2 non-finite entries$"):
            certify(T)

    def test_over_budget_format_refused_before_the_chart_map(self, monkeypatch):
        # (3,142) is the smallest format with m = 3 over the path budget
        for name in ("make_start_frame", "sigma", "tau"):
            monkeypatch.setattr(tensorcore, name, _refuse_work)
        with pytest.raises(ResourceLimitError, match=r"^C\(143,2\) = 10153 paths exceeds the budget 10000$"):
            certify(Tensor3(np.zeros((142, 283, 3))))

    def test_degenerate_kernel_forces_inconclusive(self, monkeypatch):
        # a gap tolerance of 2 reads every real endpoint's pencil as having
        # a kernel of dimension >= 2: none enters the span
        T = random_rank_sum(Format(3, 3), 5, np.random.default_rng(0))
        cert = certify(T, seed=0)
        assert (cert.verdict, cert.dim_u) == (RANK_P, 5)
        monkeypatch.setattr(certifier, "DEGENERATE_KERNEL_TOL", 2.0)
        cert = certify(T, seed=0)
        assert (cert.verdict, cert.dim_u, cert.real_points, cert.paths_failed) == (INCONCLUSIVE, 0, 6, 0)
        assert cert.psi_matrix.shape == (5, 0)
        assert cert.notes == [f"path {k}: kernel dimension >= 2 at a real solution" for k in range(6)]
        assert cert.tolerances["degenerate_tol"] == 2.0

    def test_span_tol_has_one_reader(self, monkeypatch):
        # the span count and the reported tolerance both read
        # tensorcore.SPAN_TOL: at 0.5 two of the five psi singular values
        # (1.64, 1.37, 0.75, 0.35, 0.12) stay above the cutoff
        T = random_rank_sum(Format(3, 3), 5, np.random.default_rng(0))
        cert = certify(T, seed=0)
        assert (cert.verdict, cert.dim_u, cert.tolerances["span_tol"]) == (RANK_P, 5, 1e-8)
        monkeypatch.setattr(tensorcore, "SPAN_TOL", 0.5)
        cert = certify(T, seed=0)
        svals = np.linalg.svd(cert.psi_matrix, compute_uv=False)
        assert cert.dim_u == np.count_nonzero(svals > 0.5 * svals[0]) == 2
        assert (cert.verdict, cert.tolerances["span_tol"]) == (RANK_GT_P, 0.5)

    @pytest.mark.parametrize("span_tol", BAD_SPAN_TOLS)
    def test_span_tol_refused_before_solving(self, span_tol, monkeypatch):
        T = random_rank_sum(Format(3, 3), 5, np.random.default_rng(0))
        monkeypatch.setattr(solver, "solve_all", _refuse_solving)
        with pytest.raises(TypeError, match="unexpected keyword argument 'span_tol'"):
            certify(T, seed=0, span_tol=span_tol)

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_seed_outside_documented_types_refused(self, seed):
        T = random_rank_sum(Format(3, 3), 5, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer .*, got "):
            certify(T, seed=seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_bad_seed_refused_before_any_work(self, seed, monkeypatch):
        # the zero tensor sits outside the sigma chart, and sigma is never
        # reached: the seed is refused first
        def refuse(*args, **kwargs):
            raise AssertionError("sigma ran before the seed check")

        monkeypatch.setattr(tensorcore, "sigma", refuse)
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer .*, got "):
            certify(Tensor3(np.zeros((3, 5, 3))), seed=seed)

    def test_numpy_integer_seed_is_that_seed(self):
        T = random_rank_sum(Format(3, 3), 5, np.random.default_rng(0))
        ref, cert = certify(T, seed=3), certify(T, seed=np.int64(3))
        assert np.array_equal(ref.psi_matrix, cert.psi_matrix)
        assert (ref.verdict, ref.dim_u) == (cert.verdict, cert.dim_u) == (RANK_P, 5)

    def test_wrong_p_rejected(self):
        with pytest.raises(ValueError):
            certify(Tensor3(np.zeros((3, 6, 3))))

    def test_dim_u_bounded(self):
        fmt = Format(3, 3)
        rng = np.random.default_rng(23)
        for trial in range(10):
            T = Tensor3(rng.standard_normal((fmt.n, fmt.p, fmt.m)))
            cert = certify(T, seed=(23, trial))
            assert cert.dim_u <= min(cert.real_points, fmt.p)

    def test_certificate_audit_fields(self):
        fmt = Format(3, 3)
        rng = np.random.default_rng(24)
        cert = certify(random_rank_sum(fmt, fmt.p, rng), seed=24)
        assert cert.psi_matrix.shape[0] == fmt.p
        assert cert.psi_matrix.shape[1] == cert.real_points
        assert set(cert.tolerances) >= {"span_tol", "reality_tol", "corrector_tol"}

    def test_verdict_invariant_under_slice_action(self):
        # rank is preserved by nonsingular transforms on the first two modes
        fmt = Format(3, 3)
        rng = np.random.default_rng(25)
        base = random_rank_sum(fmt, fmt.p, rng)
        base_verdict = certify(base, seed=25).verdict
        checked = 0
        for trial in range(20):
            P = rng.standard_normal((fmt.n, fmt.n))
            Q = rng.standard_normal((fmt.p, fmt.p))
            data = np.einsum("ij,jlk->ilk", P, base.data)
            data = np.einsum("ilk,lq->iqk", data, Q)
            try:
                verdict = certify(Tensor3(data), seed=(25, trial)).verdict
            except ChartViolationError:
                continue
            assert verdict == base_verdict
            checked += 1
        assert checked >= 15


class TestPerturbExperiment:
    def test_negative_control_format_3_3(self):
        fmt = Format(3, 3)
        stats = perturb_experiment(fmt, eps=1e-3, trials=10, seed=31)
        assert stats.counts[RANK_P] == 0
        assert stats.fraction(RANK_GT_P) >= 0.9
        assert stats.mean_dim_u <= 2.0

    def test_eps_zero_is_deterministic_reference(self):
        fmt = Format(3, 3)
        dims = []
        stats = perturb_experiment(
            fmt, eps=0.0, trials=4, seed=32, collect=lambda i, c: dims.append(c.dim_u)
        )
        assert len(set(dims)) == 1
        assert stats.counts[RANK_GT_P] == 4

    def test_determinism(self):
        fmt = Format(3, 3)
        s1 = perturb_experiment(fmt, eps=1e-3, trials=5, seed=33)
        s2 = perturb_experiment(fmt, eps=1e-3, trials=5, seed=33)
        assert s1 == s2

    def test_counts_sum_to_trials(self):
        fmt = Format(3, 4)
        stats = perturb_experiment(fmt, eps=1e-2, trials=6, seed=34)
        assert sum(stats.counts.values()) == stats.trials == 6

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            perturb_experiment(Format(3, 3), eps=-1.0, trials=1)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            perturb_experiment(Format(3, 3), eps=1e-3, trials=-1)

    @pytest.mark.parametrize("span_tol", BAD_SPAN_TOLS)
    def test_span_tol_refused(self, span_tol):
        with pytest.raises(TypeError, match="unexpected keyword argument 'span_tol'"):
            perturb_experiment(Format(3, 3), eps=1e-3, trials=2, seed=0, span_tol=span_tol)

    @pytest.mark.parametrize("span_tol", [np.nan, np.inf])
    def test_span_tol_refused_at_zero_trials(self, span_tol):
        # the refusal must not depend on a trial reaching certify
        with pytest.raises(TypeError, match="unexpected keyword argument 'span_tol'"):
            perturb_experiment(Format(3, 3), eps=1e-3, trials=0, seed=0, span_tol=span_tol)

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_seed_outside_documented_types_refused(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer"):
            perturb_experiment(Format(3, 3), eps=1e-3, trials=2, seed=seed)


class TestGlobalExperiment:
    def test_both_verdicts_at_3_3(self):
        fmt = Format(3, 3)
        stats = global_experiment(fmt, trials=60, seed=777)
        assert stats.counts[RANK_P] > 0
        assert stats.counts[RANK_GT_P] > 0

    def test_4_4_sees_rank_gt_p(self):
        fmt = Format(4, 4)
        stats = global_experiment(fmt, trials=8, seed=35)
        assert stats.counts[RANK_GT_P] > 0

    def test_zero_trials(self):
        stats = global_experiment(Format(3, 3), trials=0, seed=36)
        assert stats.trials == 0
        assert sum(stats.counts.values()) == 0

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            global_experiment(Format(3, 3), trials=-2, seed=36)

    @pytest.mark.parametrize("span_tol", BAD_SPAN_TOLS)
    def test_span_tol_refused(self, span_tol):
        # with NaN every trial would tally as RANK_GT_P
        with pytest.raises(TypeError, match="unexpected keyword argument 'span_tol'"):
            global_experiment(Format(3, 3), trials=2, seed=0, span_tol=span_tol)

    @pytest.mark.parametrize("span_tol", [np.nan, np.inf])
    def test_span_tol_refused_at_zero_trials(self, span_tol):
        # the refusal must not depend on a trial reaching certify
        with pytest.raises(TypeError, match="unexpected keyword argument 'span_tol'"):
            global_experiment(Format(3, 3), trials=0, seed=0, span_tol=span_tol)

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_seed_outside_documented_types_refused(self, seed):
        # None and "x" must not run as seed 0
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer"):
            global_experiment(Format(3, 3), trials=2, seed=seed)

    def test_chart_violation_is_an_inconclusive_placeholder(self, monkeypatch):
        # a trial whose tensor sits outside the sigma chart counts as
        # INCONCLUSIVE, hands collect a placeholder certificate and stays out
        # of the mean dim U
        fmt = Format(3, 3)
        ref = []
        before = global_experiment(fmt, trials=3, seed=37, collect=lambda i, c: ref.append(c))

        def certify_or_refuse(T, seed):
            if seed[2] == 1:
                raise ChartViolationError("refused")
            return certify(T, seed)

        monkeypatch.setattr(certifier, "certify", certify_or_refuse)
        seen = []
        after = global_experiment(fmt, trials=3, seed=37, collect=lambda i, c: seen.append(c))
        counts = dict(before.counts)
        counts[ref[1].verdict] -= 1
        counts[INCONCLUSIVE] += 1
        assert after.counts == counts
        assert after.mean_dim_u == np.mean([ref[0].dim_u, ref[2].dim_u])
        placeholder = seen[1]
        assert (placeholder.verdict, placeholder.dim_u, placeholder.n_paths) == (INCONCLUSIVE, 0, 0)
        assert placeholder.notes == ["sigma chart violation"]
        assert placeholder.psi_matrix.shape == (fmt.p, 0)
        assert [c.notes for c in (seen[0], seen[2])] == [ref[0].notes, ref[2].notes]

    def test_numpy_integer_and_list_seeds(self):
        fmt = Format(3, 3)
        assert global_experiment(fmt, trials=3, seed=np.int64(37)).counts == global_experiment(fmt, 3, seed=37).counts
        assert global_experiment(fmt, trials=3, seed=[37, 1]).counts == global_experiment(fmt, 3, seed=(37, 1)).counts

    def test_determinism(self):
        fmt = Format(3, 3)
        s1 = global_experiment(fmt, trials=5, seed=37)
        s2 = global_experiment(fmt, trials=5, seed=37)
        assert s1 == s2


class TestSoundness:
    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4)])
    def test_rank_p_sums_never_certify_above(self, m, n):
        # tensors built from p rank-1 terms have rank at most p
        fmt = Format(m, n)
        for trial in range(25):
            rng = np.random.default_rng((41, m, n, trial))
            T = random_rank_sum(fmt, fmt.p, rng)
            cert = certify(T, seed=(41, m, n, trial))
            assert cert.verdict != RANK_GT_P, f"unsound verdict at trial {trial}"

    @staticmethod
    def _near_frame():
        # a (3,5) tensor near the start frame, whose solve is complete with
        # 3 real endpoints of 15
        fmt = Format(3, 5)
        rng = np.random.default_rng(43)
        return tau(make_start_frame(3, 5).W0 + 1e-3 * rng.standard_normal((fmt.u, fmt.p)), fmt)

    @classmethod
    def _near_frame_with(cls, monkeypatch, edit):
        # certify the near-frame tensor with the report that ``edit`` builds
        # from its solve, a damaged copy, in place of the solve's report
        solve_all = solver.solve_all

        def damaged(*args, **kwargs):
            report = solve_all(*args, **kwargs)
            assert report.complete and report.real_count == 3
            return edit(report)

        monkeypatch.setattr(solver, "solve_all", damaged)
        return certify(cls._near_frame(), seed=43)

    @staticmethod
    def _drop_row(report, k):
        # the report without endpoint row k in any of its endpoint arrays
        return dataclasses.replace(report, **{
            name: np.delete(getattr(report, name), k, axis=0)
            for name in ("solutions", "residuals", "real", "path_index")
        })

    def test_missing_conjugate_forces_inconclusive(self, monkeypatch):
        seen = {}

        def drop_one_conjugate(report):
            k = int(np.flatnonzero(~report.real)[0])
            z = report.solutions[k].conj()
            report = self._drop_row(report, k)
            near = np.max(np.abs(report.solutions - z), axis=1) < solver.DEDUP_TOL
            partner = report.path_index[near].tolist()
            assert len(partner) == 1
            seen["partner"] = partner[0]
            return report

        cert = self._near_frame_with(monkeypatch, drop_one_conjugate)
        assert cert.verdict == INCONCLUSIVE
        assert cert.notes == [f"path {seen['partner']}: no conjugate endpoint within 1e-06"]

    def test_certify_audits_the_solve_once(self, monkeypatch):
        # close_pairs runs twice: the dedup inside _finish and the closure
        # audit, which the Newton route's check and certify share
        calls = []
        close_pairs = solver.close_pairs
        monkeypatch.setattr(solver, "close_pairs", lambda z, w: calls.append(len(z)) or close_pairs(z, w))
        cert = certify(self._near_frame(), seed=43)
        assert cert.verdict == RANK_GT_P and cert.paths_failed == 0
        assert len(calls) == 2

    def test_real_count_parity_forces_inconclusive(self, monkeypatch):
        def drop_one_real(report):
            return self._drop_row(report, int(np.flatnonzero(report.real)[0]))

        cert = self._near_frame_with(monkeypatch, drop_one_real)
        assert cert.verdict == INCONCLUSIVE
        assert cert.notes == ["2 real of 15 endpoints: the non-real ones cannot pair up"]

    def test_path_failure_forces_inconclusive(self, monkeypatch):
        # starving the tracker of steps must degrade the verdict, never flip it
        fmt = Format(3, 3)
        rng = np.random.default_rng(42)
        T = random_rank_sum(fmt, fmt.p, rng)
        monkeypatch.setattr(solver, "MAX_STEPS", 3)
        cert = certify(T, seed=42)
        assert cert.verdict == INCONCLUSIVE
        assert cert.paths_failed > 0


def _chunked_closure_notes(Z, real, index, n_paths):
    # the distance-matrix scan that the sorted search replaces: rows of the
    # full conjugate distance matrix in chunks of at most STACK_ENTRIES
    # entries, an endpoint's own column set to inf
    notes = []
    idx, Z = index[~real].tolist(), Z[~real]
    size = max(1, solver.STACK_ENTRIES // max(1, Z.size))
    for lo in range(0, len(idx), size):
        dist = np.max(np.abs(Z[None, :, :] - Z[lo : lo + size, None, :].conj()), axis=2)
        rows = np.arange(lo, min(lo + size, len(idx)))
        dist[rows - lo, rows] = np.inf
        lonely = rows[~(np.min(dist, axis=1) < solver.DEDUP_TOL)]
        notes.extend(f"path {idx[r]}: no conjugate endpoint within {solver.DEDUP_TOL:g}" for r in lonely)
    n_real = int(real.sum())
    if (n_paths - n_real) % 2:
        notes.append(f"{n_real} real of {n_paths} endpoints: the non-real ones cannot pair up")
    return notes


def _report(Z, real, index, n_paths, failures=()):
    # a report holding these endpoint arrays, complete unless failures are given
    return solver.SolveReport(
        m=0, n=Z.shape[1], n_paths=n_paths, solutions=Z, residuals=np.zeros(len(Z)), real=real,
        path_index=index, failures=list(failures), gamma=1j, chart_b=np.ones(Z.shape[1]), route=solver.TRACKED,
    )


class TestClosure:
    @staticmethod
    def _paired_stack(rng, pairs, N):
        # pairs of conjugate rows, shuffled
        z = rng.standard_normal((pairs, N)) + 1j * rng.standard_normal((pairs, N))
        return rng.permutation(np.concatenate([z, z.conj()]))

    def test_matches_the_chunked_scan(self):
        tol = solver.DEDUP_TOL
        rng = np.random.default_rng(51)
        for _ in range(60):
            N = int(rng.integers(1, 9))
            Z = self._paired_stack(rng, int(rng.integers(0, 30)), N)
            extra = rng.standard_normal((int(rng.integers(0, 6)), N)) + 0j
            Z = np.concatenate([Z, extra]) if len(Z) else extra
            P = len(Z)
            for _ in range(int(rng.integers(0, 10)) if P else 0):
                i, j = rng.integers(0, P, 2)
                kind = rng.integers(0, 5)
                if kind == 0:  # an exact repeat
                    Z[j] = Z[i]
                elif kind == 1:  # same sort key, far in another coordinate
                    Z[j] = Z[i].conj() + (N > 1) * np.r_[0, np.ones(N - 1)]
                elif kind == 2:  # a conjugate link around the tolerance and the search window
                    shift = rng.choice([0.99, 1.01, 1.9, 2.1]) * tol
                    Z[j] = Z[i].conj() + shift * (1 if rng.random() < 0.5 else np.exp(2j * np.pi * rng.random()))
                elif kind == 3:  # near real: within the tolerance of its own conjugate
                    Z[j] = Z[j].real + 1j * rng.choice([0.2, 0.45]) * tol * rng.standard_normal(N)
                else:  # close in the sort key only
                    Z[j, 0] = Z[i, 0].conj() + 0.5 * tol
            real = rng.random(P) < 0.1
            index = rng.permutation(P + 3)[:P]
            n_paths = P + int(rng.integers(0, 2))
            assert _report(Z, real, index, n_paths).closure == _chunked_closure_notes(Z, real, index, n_paths)

    def test_empty_stack(self):
        Z = np.zeros((0, 5), dtype=complex)
        empty = np.zeros(0, dtype=bool), np.zeros(0, dtype=int)
        assert _report(Z, *empty, 2).closure == _chunked_closure_notes(Z, *empty, 2) == []
        assert _report(Z, *empty, 3).closure == ["0 real of 3 endpoints: the non-real ones cannot pair up"]

    def test_silent_when_paths_failed(self):
        # a lonely endpoint and a wrong parity, but the failure already says why
        lonely = np.array([[1.0 + 1j, 2.0]]), np.zeros(1, dtype=bool), np.array([0])
        report = _report(*lonely, 3, [solver.PathFailureInfo(1, "PATH_STALL")])
        assert report.closure == []
        assert _report(*lonely, 3).closure == [
            "path 0: no conjugate endpoint within 1e-06",
            "0 real of 3 endpoints: the non-real ones cannot pair up",
        ]

    def test_scale_of_the_first_unknown_format(self):
        # (5,27) has C(30, 4) = 27,405 paths; 27,154 non-real endpoints of
        # 32 coordinates in conjugate pairs, searched in well under 10 s
        # (the chunked scan needs minutes)
        Z = self._paired_stack(np.random.default_rng(52), 27154 // 2, 32)
        start = time.perf_counter()
        notes = _report(Z, np.zeros(len(Z), dtype=bool), np.arange(len(Z)), len(Z)).closure
        assert time.perf_counter() - start < 10
        assert notes == []
