"""Rank-p certification and the Monte Carlo experiments built on it.

A tensor T of shape n x p x m inside the sigma chart has rank exactly p
iff the truncated Kronecker vectors psi(a, b) of the real kernel pairs of
its transfer tensor Y = mu(sigma(T)) span all of R^p.  The certifier runs
the continuation solver on Y, keeps the real solutions, and measures that
span.  A verdict of RANK_GT_P is only ever issued when every path is
accounted for, because the "rank > p" direction needs the full real
solution set; any lost path degrades the verdict to INCONCLUSIVE.  So does
a complete solve whose endpoints fail ``solver.SolveReport.closure``: the
target is real, so its non-real kernel pairs come in conjugate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver, tensorcore
from .errors import ChartViolationError

RANK_P = "RANK_P"
RANK_GT_P = "RANK_GT_P"
INCONCLUSIVE = "INCONCLUSIVE"


# Relative gap under which the second-smallest singular value of the
# pencil marks a kernel of dimension >= 2 at a real endpoint.
DEGENERATE_KERNEL_TOL = 1e-8


@dataclass(eq=False)
class RankCertificate:
    """Verdict plus the evidence needed to audit it, in the order of the
    ``certify`` command's report, whose ``result`` is ``dataclasses.asdict``."""

    verdict: str
    m: int
    n: int
    p: int
    dim_u: int
    real_points: int
    n_paths: int
    paths_failed: int
    tolerances: dict
    notes: list[str]
    psi_matrix: np.ndarray


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


def certify(T: tensorcore.Tensor3, seed: object = 0) -> RankCertificate:
    """Certify whether the n x p x m tensor T has rank p or rank > p.

    Raises ValueError, before any work, for a seed that
    ``solver.solve_all`` refuses; then ValueError for a non-finite entry of
    T, ResourceLimitError for a format over ``solver.PATH_BUDGET`` and
    ChartViolationError when T sits outside the sigma chart.  A kernel of
    dimension >= 2 at any real solution poisons the span count and forces
    INCONCLUSIVE, as does any path failure or, in a complete solve, a
    broken conjugate closure or real-count parity (the notes of
    ``SolveReport.closure``).
    """
    solver._seed_entropy(seed)  # a bad seed is refused before any work
    fmt = tensorcore.vspace_format(T)
    m, n = fmt.m, fmt.n
    solver._require_finite(T, "tensor")
    solver._start_system(m, n)  # the path budget, before the chart map
    Y = tensorcore.mu(tensorcore.sigma(T), fmt)
    report = solver.solve_all(Y, seed=seed)

    # the real endpoints' phase-aligned halves, which the reality flags were read from
    real, index = report.real, report.path_index
    a_aligned, b_aligned = report.aligned
    a_real, b_real = a_aligned[real].real, b_aligned[real].real
    svals = tensorcore._singular_values(tensorcore.pencil_eval(a_real, Y))
    degenerate = svals[:, -2] < DEGENERATE_KERNEL_TOL * svals[:, 0]
    notes = [f"path {i}: kernel dimension >= 2 at a real solution" for i in index[real][degenerate].tolist()]
    psi_rows = tensorcore.psi(a_real[~degenerate], b_real[~degenerate], fmt)
    psi_matrix = psi_rows.T
    dim_u = tensorcore.span_dim(psi_rows)
    broken = report.closure

    if report.failures:
        verdict = INCONCLUSIVE
        notes.extend(f"path {f.index}: {f.reason}" for f in report.failures)
    elif np.count_nonzero(degenerate) or broken:
        verdict = INCONCLUSIVE
        notes.extend(broken)
    elif dim_u == fmt.p:
        verdict = RANK_P
    else:
        verdict = RANK_GT_P

    return RankCertificate(
        verdict=verdict,
        m=m,
        n=n,
        p=fmt.p,
        dim_u=dim_u,
        real_points=report.real_count,
        n_paths=report.n_paths,
        paths_failed=len(report.failures),
        tolerances={
            "span_tol": tensorcore.SPAN_TOL,
            "reality_tol": solver.REALITY_TOL,
            "degenerate_tol": DEGENERATE_KERNEL_TOL,
            "chart_cond": tensorcore.COND_LIMIT,
            "corrector_tol": solver.CORRECTOR_TOL,
        },
        notes=notes,
        psi_matrix=psi_matrix,
    )


def perturb_experiment(
    fmt: tensorcore.Format,
    eps: float,
    trials: int,
    seed: object = 0,
    collect=None,
) -> ExperimentStats:
    """Certify tau(W0 + eps * R) for Gaussian R, ``trials`` times.

    Near the start frame every real kernel pair continues one of the real
    divisor points, so dim U stays at most the real divisor count and, when
    that count is below p, every sample is a rank > p tensor.
    """
    if not 0 <= eps < np.inf:
        raise ValueError(f"eps must be nonnegative and finite, got {eps:g}")
    W0 = solver._start_system(fmt.m, fmt.n).frame.W0

    def draw(rng):
        return tensorcore.tau(W0 + eps * rng.standard_normal((fmt.u, fmt.p)), fmt)

    return _trials(fmt, draw, 101, eps, trials, seed, collect)


def global_experiment(
    fmt: tensorcore.Format,
    trials: int,
    seed: object = 0,
    collect=None,
) -> ExperimentStats:
    """Certify i.i.d. standard normal tensors of shape n x p x m.

    For formats with plural typical ranks both RANK_P and RANK_GT_P occur
    with positive frequency; chart violations (measure zero) are tallied
    as INCONCLUSIVE.
    """

    def draw(rng):
        return tensorcore.Tensor3(rng.standard_normal((fmt.n, fmt.p, fmt.m)))

    return _trials(fmt, draw, 201, None, trials, seed, collect)


def _trials(fmt, draw, tag, eps, trials, seed, collect) -> ExperimentStats:
    """Certify ``draw(rng)`` for each trial, the tensor drawn from the rng
    seeded (seed, tag, trial) and certified at seed (seed, tag + 1, trial),
    and tally the verdicts.  A tensor outside the sigma chart counts as
    INCONCLUSIVE and stays out of the mean dim U."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    solver._start_system(fmt.m, fmt.n)  # the path budget, before the first draw
    entropy = solver._seed_entropy(seed)
    counts = {RANK_P: 0, RANK_GT_P: 0, INCONCLUSIVE: 0}
    dims = []
    for trial in range(trials):
        T = draw(np.random.default_rng((entropy, tag, trial)))
        try:
            cert = certify(T, (entropy, tag + 1, trial))
            dims.append(cert.dim_u)
        except ChartViolationError:
            cert = RankCertificate(
                verdict=INCONCLUSIVE, m=fmt.m, n=fmt.n, p=fmt.p, dim_u=0, real_points=0, n_paths=0,
                paths_failed=0, tolerances={}, notes=["sigma chart violation"], psi_matrix=np.zeros((fmt.p, 0)),
            )
        counts[cert.verdict] += 1
        if collect is not None:
            collect(trial, cert)
    mean_dim = float(np.mean(dims)) if dims else 0.0
    return ExperimentStats(trials=trials, counts=counts, eps=eps, seed=seed, m=fmt.m, n=fmt.n, mean_dim_u=mean_dim)
