"""Homotopy continuation for the bilinear kernel system M(a, B) b = 0.

The start system is the start frame's tensor A', whose solution set is
fully known: each of the C(u, m-1) monic degree-(m-1) divisors h of
y^u + 1 yields one projective solution, obtained from the coefficient
point of h by the slice reordering that defines A'.  Exactly the
conjugation-closed divisor selections give real solutions, so the real
start count equals the closed-form divisor count.

Charts: a lives on the affine slice a_m = -1 and b on c . b = 1 for a
fixed random real vector c, making the tracked system square of size
u + 2 in the m + n = u + 2 unknowns (a, b).  Paths follow

    B(t) = (1 - t) * gamma * B_from + t * B_to,   t: 0 -> 1,

with gamma a random unit complex constant (detour away from the
discriminant), an order-2 tangent predictor, a Newton corrector with a
basin guard, and adaptive step control.  All paths of a solve are
tracked in lockstep as stacked arrays, each path with its own step
control.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# The LAPACK gufunc behind np.linalg.solve.  At the tracker's (m+n) x (m+n)
# systems np.linalg.solve's Python wrapper costs about as much as the
# stacked LAPACK call, and the gufunc returns a singular row as NaN instead
# of raising for the whole stack.
from numpy.linalg._umath_linalg import solve1 as _lapack_solve

from . import polyfactor, tensorcore
from .errors import (
    AT_INFINITY,
    CHART_ESCAPE,
    PATH_DIVERGE,
    PATH_STALL,
    WARN_MULTIPLICITY,
    DegenerateStartError,
    PathError,
    ResourceLimitError,
)

# Tracked coordinates beyond this norm are declared at infinity.
BLOWUP_NORM = 1e8

# Step control: every path starts at INITIAL_STEP; an easy step doubles the
# next one, up to the rest of the path, and a rejected step halves it.  A
# path stalls once its step falls below MIN_STEP or it has taken MAX_STEPS
# steps; each corrector call makes at most MAX_NEWTON iterations.
INITIAL_STEP = 0.05
MIN_STEP = 1e-10
MAX_NEWTON = 10
MAX_STEPS = 20000

# Endpoints closer than this in max-norm chart coordinates collide.
DEDUP_TOL = 1e-6

# Endpoints whose phase-aligned a and b have imaginary parts below this
# are real.
REALITY_TOL = 1e-6

# Hard cap on the number of start solutions (and hence paths) per solve.
PATH_BUDGET = 10**4

# Most Jacobian entries one lockstep batch holds (16 MB of complex128);
# larger solves are tracked in consecutive batches of whole paths, so the
# memory of a solve at the path budget stays bounded.
STACK_ENTRIES = 2**20

# Relative gap under which the second-smallest singular value of the
# pencil marks a kernel of dimension >= 2.
DEGENERATE_KERNEL_TOL = 1e-8


# Smallest corrector tolerance the tracker accepts.  Below it the residual
# test sits at rounding level and steps are rejected until they underflow:
# on 45 Gaussian targets at (3,3), (3,4) and (4,4) no path stalls at 5e-15,
# while 1e-15 stalls 9 of their 540 paths and 3e-16 stalls 119.
MIN_CORRECTOR_TOL = 5e-15


@dataclass
class TrackOptions:
    """Settings of the predictor-corrector tracker.

    ``gamma`` is sampled per solve when left unset.
    """

    corrector_tol: float = 1e-12
    gamma: complex | None = None

    def __post_init__(self):
        if not self.corrector_tol >= MIN_CORRECTOR_TOL:
            raise ValueError(f"corrector_tol must be at least {MIN_CORRECTOR_TOL:g}, the smallest the corrector "
                             f"meets in double precision, got {self.corrector_tol:g}")
        if self.gamma is not None and self.gamma == 0:
            raise ValueError("gamma must be nonzero")


@dataclass(eq=False)
class Solution:
    """One kernel pair (a, b) with a_m = -1 and c . b = 1.

    ``residual`` is the 2-norm of M(a, B) b at the owning tensor B;
    ``source`` is the divisor index subset for start solutions and
    "TRACKED" for continuation endpoints.
    """

    a: np.ndarray
    b: np.ndarray
    residual: float
    is_real: bool
    source: tuple[int, ...] | str
    path_index: int | None = None


@dataclass
class PathFailureInfo:
    index: int
    reason: str
    detail: str = ""


@dataclass(eq=False)
class SolveReport:
    """All endpoints of one continuation run plus bookkeeping.

    Path conservation: len(solutions) + len(failures) equals n_paths.
    ``complete`` is True only when no path failed, which is what the
    rank certificate requires before trusting the real count.
    """

    m: int
    n: int
    n_paths: int
    solutions: list[Solution]
    failures: list[PathFailureInfo]
    real_count: int
    gamma: complex
    chart_b: np.ndarray
    seed: object

    @property
    def complete(self) -> bool:
        return not self.failures


def _sample_gamma(rng: np.random.Generator) -> complex:
    # unit modulus, bounded away from +-1 so the detour stays off the
    # real axis crossings
    theta = rng.uniform(0.1 * np.pi, 0.9 * np.pi)
    if rng.random() < 0.5:
        theta = -theta
    return complex(np.cos(theta), np.sin(theta))


def _chart_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


@functools.lru_cache(maxsize=16)
def _start_system(m: int, n: int):
    """The start frame of format (m, n) and its C(u, m-1) start points,
    built once per process: (frame, a rows, kernel vectors b with unit
    2-norm, real flags, divisor index subsets).  The arrays are read-only;
    callers copy what they hand out.

    For each (m-1)-subset of the roots of y^u + 1, the coefficient point of
    the corresponding monic divisor is remapped through the slice reorder
    that defines A', rescaled onto the a_m = -1 chart, and paired with the
    one-dimensional kernel of the pencil there.  Exactly the
    conjugation-closed subsets are flagged real.
    """
    fmt = tensorcore.Format(m, n)
    u = fmt.u
    n_paths = math.comb(u, m - 1)
    if n_paths > PATH_BUDGET:
        raise ResourceLimitError(f"C({u},{m - 1}) = {n_paths} paths exceeds the budget {PATH_BUDGET}")
    frame = tensorcore.make_start_frame(m, n)
    roots = polyfactor.neg_roots(u)
    order = tensorcore.slice_reorder(m)

    subsets = tuple(itertools.combinations(range(u), m - 1))
    a_rows = np.empty((n_paths, m), dtype=complex)
    kernels = np.empty((n_paths, n), dtype=complex)
    for idx, subset in enumerate(subsets):
        coeffs = polyfactor._expand_from_roots(roots[list(subset)])
        x = np.append(-coeffs[: m - 1], -1.0 + 0.0j)
        xprime = np.array([sign * x[src] for (src, sign) in order])
        if abs(xprime[-1]) < 1e-12:
            raise PathError(CHART_ESCAPE, f"start subset {subset} leaves the a_m = -1 chart")
        a = (-1.0 / xprime[-1]) * xprime
        a[-1] = -1.0 + 0.0j

        _, svals, Vh = np.linalg.svd(tensorcore.pencil_eval(a, frame.Aprime))
        if svals[-2] < DEGENERATE_KERNEL_TOL * svals[0]:
            raise DegenerateStartError(f"start subset {subset} has kernel dimension >= 2")
        a_rows[idx] = a
        kernels[idx] = Vh[-1].conj()
    real = np.array([all((u - 1 - k) in subset for k in subset) for subset in subsets])
    for arr in (a_rows, kernels, real):
        arr.flags.writeable = False
    return frame, a_rows, kernels, real, subsets


def _on_chart(kernels: np.ndarray, c: np.ndarray, subsets) -> np.ndarray:
    """Kernel vectors rescaled onto the b chart c . b = 1."""
    cb = kernels @ c
    flat = np.flatnonzero(np.abs(cb) < 1e-10)
    if flat.size:
        raise DegenerateStartError(f"chart vector nearly orthogonal to the kernel at {subsets[flat[0]]}")
    return kernels / cb[:, None]


def start_solutions(m: int, n: int, c: np.ndarray | None = None, seed: object = 0) -> list[Solution]:
    """All C(u, m-1) kernel pairs of the start tensor A', on the charts
    a_m = -1 and c . b = 1 (c drawn from ``seed`` when not given), with
    their residuals at A'.  Exactly the conjugation-closed divisor subsets
    are flagged real."""
    frame, a_rows, kernels, real, subsets = _start_system(m, n)
    if c is None:
        c = _chart_vector(n, np.random.default_rng(seed))
    b_rows = _on_chart(kernels, c, subsets)
    residuals = _residuals(frame.Aprime, a_rows, b_rows)
    return [
        Solution(a=a_rows[idx].copy(), b=b_rows[idx], residual=float(residuals[idx]),
                 is_real=bool(real[idx]), source=subset, path_index=idx)
        for idx, subset in enumerate(subsets)
    ]


def _solve_rows(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the stacked systems A[p] x[p] = rhs[p] with LAPACK's gesv, as
    np.linalg.solve does.  A singular row comes back NaN and raises the
    invalid flag (callers run under ``_quiet``); every other row is solved
    exactly as alone."""
    return _lapack_solve(A, rhs, signature="DD->D")


# Singular rows come back NaN and breaking-down rows may overflow; the
# tracker reads both off the values, so its stages run with the flags off.
_quiet = np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")


class _Lockstep:
    """Paths of the homotopy B(t) = gamma * B_from + t * (B_to - gamma * B_from),
    tracked in lockstep.

    Path p solves the square system [M(a, B(t)) b ; d_p . a - delta ;
    c_p . b - 1] in z = (a, b); its chart rows [d_p, 0 ; 0, c_p] are row p
    of ``charts``.  The system is bilinear, so the top u rows of the
    Jacobian are linear in z: J_top(z, t) = L0 z + t L1 z, built for every
    path by one matrix product [z, t z] @ [L0; L1].  Since
    J_top(z, t) z = 2 M(a, B(t)) b, the residual is half of J_top z and
    its t-derivative half of (L1 z) z.

    Each path keeps its own t, step and status; every stage of the
    predictor-corrector makes one stacked evaluation and one stacked solve
    over the paths still in that stage, and the stacks are gathered anew
    only when a path leaves them.
    """

    def __init__(self, B_from, B_to, gamma: complex, corrector_tol: float):
        u, n, m = B_from.shape
        B0 = gamma * B_from
        S = np.stack([B0, B_to - B0])  # (2, u, n, m)
        N = m + n
        L = np.zeros((2, u, N, N), dtype=complex)
        L[:, :, :m, m:] = S.transpose(0, 1, 3, 2)  # d(M b)_i / d a_k = sum_j B_ijk b_j
        L[:, :, m:, :m] = S  # d(M b)_i / d b_j = sum_k B_ijk a_k
        # rows (s, x) of the stacked map, so that [z, t z] @ L is J_top
        self.L = L.transpose(0, 3, 1, 2).reshape(2 * N, u * N)
        self.halve_top = np.append(np.full(u, 0.5), [1.0, 1.0])
        self.u, self.N = u, N
        self.tol = corrector_tol

    def _jacobian(self, z, t, charts):
        """Jacobians of paths at their own t."""
        top = (np.concatenate([z, t[:, None] * z], axis=1) @ self.L).reshape(len(z), self.u, self.N)
        return np.concatenate([top, charts], axis=1)

    def _residual(self, J, z):
        F = (J @ z[..., None])[..., 0]
        F *= self.halve_top
        F[:, self.u :] -= self.chart_rhs
        return F

    @_quiet
    def _tangent(self, z, t, charts):
        """dz/dt of each path at its own t, and whether its system was
        regular (the solved row is not NaN): J k = -dF/dt, where dF/dt is
        half of (L1 z) z."""
        J = self._jacobian(z, t, charts)
        J1 = (z @ self.L[self.N :]).reshape(len(z), self.u, self.N)
        rhs = np.zeros_like(z)
        rhs[:, : self.u] = -0.5 * (J1 @ z[..., None])[..., 0]
        k = _solve_rows(J, rhs)
        return k, ~np.isnan(k).any(axis=1)

    @_quiet
    def _correct(self, z, t, charts, iters):
        """Newton on each path at its own t; returns (z, converged, total
        correction size).  A path leaves the loop on convergence, on
        breakdown (residual beyond 1e10 or not finite) or on a singular
        Jacobian, where its solve comes back NaN and so does its next
        residual; the last two are not converged.  A row's residual is
        checked at most iters + 1 times, around at most iters solves.  Rows
        that do not converge come back as given."""
        tol = self.tol
        z = z.copy()
        ok = np.zeros(len(z), dtype=bool)
        moved = np.zeros(len(z))
        # the rows still iterating, gathered anew only when one leaves
        live, zl, tl, cl, ml = np.arange(len(z)), z, t, charts, moved
        for it in range(iters + 1):
            J = self._jacobian(zl, tl, cl)
            F = self._residual(J, zl)
            rn = np.abs(F).max(axis=1)
            fine = rn <= 1e10  # False for NaN as well
            conv = fine & (rn < tol * np.fmax(1.0, np.abs(zl).max(axis=1)))
            if conv.any():
                rows = live[conv]
                ok[rows] = True
                z[rows] = zl[conv]
                moved[rows] = ml[conv]
            if it == iters:
                break
            more = fine ^ conv
            if not more.all():
                if not more.any():
                    break
                live, zl, tl, cl, ml, J, F = live[more], zl[more], tl[more], cl[more], ml[more], J[more], F[more]
            dz = _solve_rows(J, F)
            zl = zl - dz
            ml = ml + np.abs(dz).max(axis=1)
        return z, ok, moved

    def run(self, z0: np.ndarray, charts: np.ndarray, delta: complex) -> tuple[np.ndarray, dict[int, PathError]]:
        """Track every row of z0, on the chart rows of the same row of
        ``charts``, from t = 0 to 1.  Returns the endpoints and the failed
        rows with their errors; failed rows of the endpoint array are
        meaningless."""
        self.chart_rhs = np.array([delta, 1.0], dtype=complex)
        z = z0.astype(complex)
        failed: dict[int, PathError] = {}
        size = max(1, STACK_ENTRIES // self.N**2)
        for lo in range(0, len(z), size):
            z[lo : lo + size], batch = self._run(z[lo : lo + size], charts[lo : lo + size])
            failed.update((lo + p, exc) for p, exc in batch.items())
        return z, failed

    def _run(self, z, charts):
        # tracks one batch in place; every path still moving has taken the
        # same number of steps, so the step budget is one count
        P = len(z)
        failed: dict[int, PathError] = {}
        dead = np.zeros(P, dtype=bool)
        # the paths still moving: batch row, z, t, step, chart rows
        idx, za, ta, ha, ca = np.arange(P), z, np.zeros(P), np.full(P, INITIAL_STEP), charts

        def fail(sel, reason, message):
            for p in np.flatnonzero(sel):
                dead[idx[p]] = True
                failed[int(idx[p])] = PathError(reason, message.format(t=ta[p]))

        for _ in range(MAX_STEPS):
            if not idx.size:
                break
            ha = np.minimum(ha, 1.0 - ta)
            k1, ok1 = self._tangent(za, ta, ca)
            half = 0.5 * ha
            k2, ok2 = self._tangent(za + half[:, None] * k1, ta + half, ca)
            regular = ok1 & ok2  # a singular tangent halves the step like a rejection

            dz_pred = ha[:, None] * k2
            z_new, ok, moved = self._correct(za + dz_pred, ta + ha, ca, MAX_NEWTON)
            # basin guard: the corrector must only refine the prediction,
            # a large pullback signals a possible jump onto another path
            guard = np.maximum(np.abs(dz_pred).max(axis=1), 1e-8)
            ok &= regular & (moved <= 0.25 * guard)
            ta = np.where(ok, ta + ha, ta)
            za = np.where(ok[:, None], z_new, za)
            ha = ha * np.where(ok, 1.0 + (moved < 0.01 * guard), 0.5)

            norm = np.abs(za).max(axis=1)
            leave = (ta >= 1.0) | (ha < MIN_STEP) | (norm > BLOWUP_NORM)
            if leave.any():
                under = ~ok & (ha < MIN_STEP)
                fail(under & ~regular, PATH_STALL, "singular tangent at t = {t:.6f}")
                fail(under & regular, PATH_STALL, "step underflow at t = {t:.6f}")
                blown = regular & ~under & (norm > BLOWUP_NORM)
                fail(blown, AT_INFINITY, f"coordinate norm beyond {BLOWUP_NORM:.0e} at t = {{t:.6f}}")
                done = (ta >= 1.0) & ~blown
                z[idx[done]] = za[done]
                stay = ~(under | blown | done)
                idx, za, ta, ha, ca = idx[stay], za[stay], ta[stay], ha[stay], ca[stay]
        # the paths still moving have used up the step budget
        fail(np.ones(idx.size, dtype=bool), PATH_STALL, f"step budget {MAX_STEPS} exhausted at t = {{t:.6f}}")

        ends = np.flatnonzero(~dead)
        z[ends], ok, _ = self._correct(z[ends], np.ones(len(ends)), charts[ends], max(MAX_NEWTON, 20))
        for p in ends[~ok]:
            failed[int(p)] = PathError(PATH_DIVERGE, "endpoint correction did not converge at t = 1")
        return z, failed


def _charts(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Chart rows [d_p, 0 ; 0, c_p] for rows d of shape (P, m) and c of (P, n)."""
    P, m = d.shape
    out = np.zeros((P, 2, m + c.shape[1]), dtype=complex)
    out[:, 0, :m] = d
    out[:, 1, m:] = c
    return out


def _residuals(B: tensorcore.Tensor3, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-norms of M(a_p, B) b_p for stacked rows a (P, m) and b (P, n)."""
    # contract b first: the (P, u, m) intermediate is the smaller, m <= n
    Bb = np.einsum("ijk,pj->pik", B.data.astype(complex), b)
    return np.linalg.norm(np.einsum("pik,pk->pi", Bb, a), axis=1)


def track_path(
    B_from: tensorcore.Tensor3,
    B_to: tensorcore.Tensor3,
    s0: Solution,
    opts: TrackOptions,
    c: np.ndarray | None = None,
    d: np.ndarray | None = None,
    delta: complex = -1.0 + 0.0j,
) -> Solution:
    """Continue one start solution from B_from to B_to.

    Raises PathError with reason PATH_STALL (step underflow or step
    budget), PATH_DIVERGE (corrector breakdown at the endpoint) or
    AT_INFINITY (coordinate blowup).  The b chart defaults to the affine
    functional that s0 already satisfies; the a chart defaults to a_m = -1.
    ``opts.gamma`` must be set.
    """
    u, n, m = B_from.shape
    if B_to.shape != (u, n, m):
        raise ValueError(f"target shape {B_to.shape} does not match start shape {(u, n, m)}")
    if opts.gamma is None:
        raise ValueError("track_path needs opts.gamma; solve_all samples one per solve")
    if c is None:
        # recover an affine functional pinning b from the start point itself
        c = s0.b.conj() / np.linalg.norm(s0.b) ** 2
    if d is None:
        d = np.zeros(m, dtype=complex)
        d[-1] = 1.0
    tracker = _Lockstep(B_from.data, B_to.data, opts.gamma, opts.corrector_tol)
    z, failed = tracker.run(np.concatenate([s0.a, s0.b])[None], _charts(c[None], d[None]), delta)
    if failed:
        raise failed[0]
    a, b = z[0, :m], z[0, m:]
    return Solution(
        a=a,
        b=b,
        residual=float(_residuals(B_to, a[None], b[None])[0]),
        is_real=False,
        source="TRACKED",
        path_index=s0.path_index,
    )


def _aligned(v: np.ndarray) -> np.ndarray:
    # divide each row by its entry of largest modulus; a projective point
    # is real iff the result is entrywise real
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    return v / top


def projectively_real(a: np.ndarray, b: np.ndarray, tol: float) -> bool | np.ndarray:
    """Whether (a, b) is real as a pair of projective points; for stacks of
    rows a (P, m) and b (P, n), one flag per row.

    Each vector is first rescaled by its entry of largest modulus (phase
    alignment); conjugate pairs are accepted or rejected together by
    symmetry.
    """
    a, b = np.asarray(a), np.asarray(b)
    imag = np.maximum(np.abs(_aligned(a).imag).max(axis=-1), np.abs(_aligned(b).imag).max(axis=-1))
    real = imag < tol
    return bool(real) if real.ndim == 0 else real


def _first_kept(z: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """Endpoint collisions among the rows of z, taken in order: a row within
    ``DEDUP_TOL`` (max-norm) of an earlier kept row is not kept, and is
    mapped to the first such row.  Returns the kept mask and that map.

    Only pairs within ``DEDUP_TOL`` in Re z[:, 0] can collide, since that
    coordinate's difference is at most the max-norm one; sorting on it
    finds them without comparing every pair.
    """
    key = z[:, 0].real
    order = np.argsort(key, kind="stable")
    key = key[order]
    earlier: dict[int, list[int]] = {}
    for k in range(1, len(z)):
        close = np.flatnonzero(key[k:] - key[:-k] < DEDUP_TOL)
        if not close.size:
            break  # the keys are sorted, so wider windows hold no pair either
        i, j = order[close], order[close + k]
        hit = np.max(np.abs(z[i] - z[j]), axis=1) < DEDUP_TOL
        for lo, hi in zip(np.minimum(i, j)[hit].tolist(), np.maximum(i, j)[hit].tolist()):
            earlier.setdefault(hi, []).append(lo)
    kept = np.ones(len(z), dtype=bool)
    named: dict[int, int] = {}
    for hi in sorted(earlier):
        hits = [lo for lo in sorted(earlier[hi]) if kept[lo]]
        if hits:
            kept[hi] = False
            named[hi] = hits[0]
    return kept, named


def solve_all(B: tensorcore.Tensor3, opts: TrackOptions | None = None, seed: object = 0) -> SolveReport:
    """Track every start path to the target tensor B (shape u x n x m).

    All paths are tracked in lockstep, each with its own step control.
    Endpoints closer than ``DEDUP_TOL`` in chart coordinates are collisions:
    the later path is recorded as a WARN_MULTIPLICITY failure rather than
    merged silently.  Paths hitting infinity are retried once, together,
    each on its own random complex chart on a.  Determinism: (seed, gamma,
    chart) fix every path.
    """
    u, n, m = B.shape
    fmt = tensorcore.Format(m, n)
    if u != fmt.u:
        raise ValueError(f"target shape {B.shape} has u = {u}, expected {fmt.u}")
    opts = opts or TrackOptions()
    rng = np.random.default_rng(seed)
    c = _chart_vector(n, rng)
    gamma = opts.gamma if opts.gamma is not None else _sample_gamma(rng)

    frame, a0, kernels, _, subsets = _start_system(m, n)
    b0 = _on_chart(kernels, c, subsets)
    n_paths = len(a0)
    cs = np.broadcast_to(c, (n_paths, n))
    e_m = np.zeros((n_paths, m))
    e_m[:, -1] = 1.0
    tracker = _Lockstep(frame.Aprime.data, B.data, gamma, opts.corrector_tol)
    z, failed = tracker.run(np.concatenate([a0, b0], axis=1), _charts(cs, e_m), -1.0)
    # (reason, detail) of every path that ends without an endpoint
    errors = {idx: (exc.reason, str(exc)) for idx, exc in failed.items() if exc.reason != AT_INFINITY}

    # one retry for the points leaving a_m = -1, each on its own random
    # complex a-chart d . a = 1
    retry = np.array(sorted(set(failed) - set(errors)), dtype=int)
    if retry.size:
        d = np.array([_retry_chart(seed, int(idx), m) for idx in retry])
        a_r = a0[retry] / np.sum(d * a0[retry], axis=1, keepdims=True)
        z_r, failed_r = tracker.run(np.concatenate([a_r, b0[retry]], axis=1), _charts(cs[retry], d), 1.0)
        for row, idx in enumerate(retry):
            idx = int(idx)
            if row in failed_r:
                errors[idx] = (failed_r[row].reason, "retry chart: " + str(failed_r[row]))
                continue
            a, b = z_r[row, :m], z_r[row, m:]
            if abs(a[-1]) < 1e-8 * np.max(np.abs(a)):
                errors[idx] = (CHART_ESCAPE, "endpoint stays outside the a_m = -1 chart")
                continue
            a = -a / a[-1]
            a[-1] = -1.0 + 0.0j
            z[idx] = np.concatenate([a, b / (c @ b)])

    # first kept wins among the endpoints, in path order
    ends = np.array([idx for idx in range(n_paths) if idx not in errors], dtype=int)
    kept, named = _first_kept(z[ends])
    for row, first in named.items():
        errors[int(ends[row])] = (WARN_MULTIPLICITY, f"endpoint within {DEDUP_TOL:g} of path {int(ends[first])}")
    failures = [PathFailureInfo(idx, *errors[idx]) for idx in sorted(errors)]
    keep = ends[kept]
    a_k, b_k = z[keep, :m], z[keep, m:]
    residuals = _residuals(B, a_k, b_k)
    real = projectively_real(a_k, b_k, REALITY_TOL)
    solutions = [
        Solution(a=a_k[row], b=b_k[row], residual=float(residuals[row]), is_real=bool(real[row]),
                 source="TRACKED", path_index=int(idx))
        for row, idx in enumerate(keep)
    ]

    # path conservation: every start index ends as exactly one endpoint or failure
    seen = sorted([s.path_index for s in solutions] + [f.index for f in failures])
    if seen != list(range(n_paths)):
        raise RuntimeError(f"path conservation violated: {n_paths} paths, indices {seen}")
    real_count = int(real.sum())

    return SolveReport(
        m=m,
        n=n,
        n_paths=n_paths,
        solutions=solutions,
        failures=failures,
        real_count=real_count,
        gamma=gamma,
        chart_b=c,
        seed=seed,
    )


def _retry_chart(seed: object, idx: int, m: int) -> np.ndarray:
    rng = np.random.default_rng((_seed_entropy(seed), 7919, idx))
    d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return d / np.linalg.norm(d)


def _seed_entropy(seed: object) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, (tuple, list)):
        acc = 0
        for part in seed:
            acc = (acc * 1000003 + int(part)) % (2**63)
        return acc
    return 0
