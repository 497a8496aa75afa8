"""Rank-p certification and the Monte Carlo experiments built on it.

A tensor T of shape n x p x m inside the sigma chart has rank exactly p
iff the truncated Kronecker vectors psi(a, b) of the real kernel pairs of
its transfer tensor Y = mu(sigma(T)) span all of R^p.  The certifier runs
the continuation solver on Y, keeps the real solutions, and measures that
span.  A verdict of RANK_GT_P is only ever issued when every path is
accounted for, because the "rank > p" direction needs the full real
solution set; any lost path degrades the verdict to INCONCLUSIVE.  So does
a complete solve whose endpoints break conjugate closure: the target is
real, so its non-real kernel pairs come in conjugate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import solver, tensorcore
from .errors import ChartViolationError

RANK_P = "RANK_P"
RANK_GT_P = "RANK_GT_P"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class CertifyOptions:
    """Span tolerance and seed of one certification run.

    ``span_tol`` sits at a cliff for near-degenerate inputs and is
    deliberately exposed; the other thresholds are module constants of
    ``solver`` and ``tensorcore``.
    """

    span_tol: float = 1e-8
    seed: object = 0


@dataclass(eq=False)
class RankCertificate:
    """Verdict plus the evidence needed to audit it."""

    verdict: str
    dim_u: int
    real_points: int
    n_paths: int
    paths_failed: int
    tolerances: dict
    psi_matrix: np.ndarray
    notes: list[str]
    m: int
    n: int
    p: int


@dataclass
class ExperimentStats:
    """Verdict tallies of a seeded Monte Carlo experiment."""

    trials: int
    counts: dict
    eps: float | None
    seed: object
    m: int
    n: int
    mean_dim_u: float

    def fraction(self, verdict: str) -> float:
        return self.counts.get(verdict, 0) / self.trials if self.trials else 0.0


def certify(T: tensorcore.Tensor3, opts: CertifyOptions | None = None) -> RankCertificate:
    """Certify whether the n x p x m tensor T has rank p or rank > p.

    Raises ChartViolationError when T sits outside the sigma chart.  A
    kernel of dimension >= 2 at any real solution poisons the span count
    and forces INCONCLUSIVE, as does any path failure or, in a complete
    solve, a broken conjugate closure (see ``_closure_notes``).
    """
    opts = opts or CertifyOptions()
    n, p, m = T.shape
    fmt = tensorcore.Format(m, n)
    if p != fmt.p:
        raise ValueError(f"tensor shape {T.shape} is not critical: expected p = {fmt.p}")

    W = tensorcore.sigma(T)
    Y = tensorcore.mu(W, fmt)
    track = solver.TrackOptions()
    report = solver.solve_all(Y, track, seed=opts.seed)

    real = [s for s in report.solutions if s.is_real]
    a_real = np.real(solver._aligned(np.array([s.a for s in real]).reshape(-1, m)))
    b_real = np.real(solver._aligned(np.array([s.b for s in real]).reshape(-1, n)))
    svals = np.linalg.svd(tensorcore.pencil_eval(a_real, Y), compute_uv=False)
    degenerate = svals[:, -2] < solver.DEGENERATE_KERNEL_TOL * svals[:, 0]
    notes = [f"path {s.path_index}: kernel dimension >= 2 at a real solution"
             for s, flag in zip(real, degenerate) if flag]
    psi_rows = tensorcore.psi(a_real[~degenerate], b_real[~degenerate], fmt)
    psi_matrix = psi_rows.T
    dim_u = tensorcore.span_dim(psi_rows, opts.span_tol)
    real_points = len(real)
    broken = [] if report.failures else _closure_notes(report.solutions, report.n_paths)

    if report.failures:
        verdict = INCONCLUSIVE
        notes.extend(f"path {f.index}: {f.reason}" for f in report.failures)
    elif degenerate.any() or broken:
        verdict = INCONCLUSIVE
        notes.extend(broken)
    elif dim_u == fmt.p:
        verdict = RANK_P
    else:
        verdict = RANK_GT_P

    return RankCertificate(
        verdict=verdict,
        dim_u=dim_u,
        real_points=real_points,
        n_paths=report.n_paths,
        paths_failed=len(report.failures),
        tolerances={
            "span_tol": opts.span_tol,
            "reality_tol": solver.REALITY_TOL,
            "degenerate_tol": solver.DEGENERATE_KERNEL_TOL,
            "chart_cond": tensorcore.COND_LIMIT,
            "corrector_tol": track.corrector_tol,
        },
        psi_matrix=psi_matrix,
        notes=notes,
        m=m,
        n=n,
        p=fmt.p,
    )


def _closure_notes(solutions: list[solver.Solution], n_paths: int) -> list[str]:
    """Notes on every way the endpoints of a complete solve of a real
    target break conjugate closure: a non-real endpoint whose conjugate
    lies within ``solver.DEDUP_TOL`` (max-norm, chart coordinates) of no
    other non-real endpoint, and a real count of the wrong parity.  The
    charts a_m = -1 and c . b = 1 are real, so the conjugate of an endpoint
    is its conjugate chart point."""
    notes = []
    idx = [s.path_index for s in solutions if not s.is_real]
    Z = np.array([np.concatenate([s.a, s.b]) for s in solutions if not s.is_real])
    # rows of the distance matrix in chunks of at most STACK_ENTRIES entries
    size = max(1, solver.STACK_ENTRIES // max(1, Z.size))
    for lo in range(0, len(idx), size):
        dist = np.max(np.abs(Z[None, :, :] - Z[lo : lo + size, None, :].conj()), axis=2)
        rows = np.arange(lo, min(lo + size, len(idx)))
        dist[rows - lo, rows] = np.inf  # an endpoint is not its own partner
        lonely = rows[~(np.min(dist, axis=1) < solver.DEDUP_TOL)]
        notes.extend(f"path {idx[r]}: no conjugate endpoint within {solver.DEDUP_TOL:g}" for r in lonely)
    real = len(solutions) - len(idx)
    if (n_paths - real) % 2:
        notes.append(f"{real} real of {n_paths} endpoints: the non-real ones cannot pair up")
    return notes


def _tally(fmt, certs, trials, eps, seed):
    counts = {RANK_P: 0, RANK_GT_P: 0, INCONCLUSIVE: 0}
    dims = []
    for cert in certs:
        counts[cert.verdict] += 1
        # chart-violation placeholders (no paths tracked) stay out of the mean
        if cert.n_paths > 0:
            dims.append(cert.dim_u)
    mean_dim = float(np.mean(dims)) if dims else 0.0
    return ExperimentStats(
        trials=trials, counts=counts, eps=eps, seed=seed, m=fmt.m, n=fmt.n, mean_dim_u=mean_dim
    )


def perturb_experiment(
    fmt: tensorcore.Format,
    eps: float,
    trials: int,
    seed: object = 0,
    opts: CertifyOptions | None = None,
    collect=None,
) -> ExperimentStats:
    """Certify tau(W0 + eps * R) for Gaussian R, ``trials`` times.

    Near the start frame every real kernel pair continues one of the real
    divisor points, so dim U stays at most the real divisor count and, when
    that count is below p, every sample is a rank > p tensor.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    opts = opts or CertifyOptions()
    frame = tensorcore.make_start_frame(fmt.m, fmt.n)
    certs = []
    for trial in range(trials):
        rng = np.random.default_rng((solver._seed_entropy(seed), 101, trial))
        W = frame.W0 + eps * rng.standard_normal((fmt.u, fmt.p))
        T = tensorcore.tau(W, fmt)
        cert = certify(T, replace(opts, seed=(solver._seed_entropy(seed), 102, trial)))
        certs.append(cert)
        if collect is not None:
            collect(trial, cert)
    return _tally(fmt, certs, trials, eps, seed)


def global_experiment(
    fmt: tensorcore.Format,
    trials: int,
    seed: object = 0,
    opts: CertifyOptions | None = None,
    collect=None,
) -> ExperimentStats:
    """Certify i.i.d. standard normal tensors of shape n x p x m.

    For formats with plural typical ranks both RANK_P and RANK_GT_P occur
    with positive frequency; chart violations (measure zero) are tallied
    as INCONCLUSIVE.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    opts = opts or CertifyOptions()
    certs = []
    for trial in range(trials):
        rng = np.random.default_rng((solver._seed_entropy(seed), 201, trial))
        T = tensorcore.Tensor3(rng.standard_normal((fmt.n, fmt.p, fmt.m)))
        try:
            cert = certify(T, replace(opts, seed=(solver._seed_entropy(seed), 202, trial)))
        except ChartViolationError:
            cert = RankCertificate(
                verdict=INCONCLUSIVE, dim_u=0, real_points=0, n_paths=0, paths_failed=0,
                tolerances={}, psi_matrix=np.zeros((fmt.p, 0)),
                notes=["sigma chart violation"], m=fmt.m, n=fmt.n, p=fmt.p,
            )
        certs.append(cert)
        if collect is not None:
            collect(trial, cert)
    return _tally(fmt, certs, trials, None, seed)
