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

# The corrector's default tolerance: Newton stops once the residual's
# max-norm is below it times max(1, max |z|).
CORRECTOR_TOL = 1e-12

# Smallest corrector tolerance the tracker accepts.  Below it the residual
# test sits at rounding level and steps are rejected until they underflow:
# on 45 Gaussian targets at (3,3), (3,4) and (4,4) no path stalls at 5e-15,
# while 1e-15 stalls 9 of their 540 paths and 3e-16 stalls 119.
MIN_CORRECTOR_TOL = 5e-15


@dataclass
class PathFailureInfo:
    index: int
    reason: str
    detail: str = ""


@dataclass(eq=False)
class SolveReport:
    """All endpoints of one continuation run plus bookkeeping.

    The endpoints are parallel arrays with one row per kept path, in path
    order: ``solutions`` holds the rows (a, b) of shape (K, m+n) on the
    charts a_m = -1 and c . b = 1, ``residuals`` the 2-norms of M(a, B) b
    at the target B, ``real`` the reality flags and ``path_index`` the
    start index each row was tracked from.

    Path conservation: len(solutions) + len(failures) equals n_paths.
    ``complete`` is True only when no path failed, which is what the
    rank certificate requires before trusting the real count.
    """

    m: int
    n: int
    n_paths: int
    solutions: np.ndarray
    residuals: np.ndarray
    real: np.ndarray
    path_index: np.ndarray
    failures: list[PathFailureInfo]
    gamma: complex
    chart_b: np.ndarray

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def real_count(self) -> int:
        return int(self.real.sum())


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
    the corresponding monic divisor g is remapped through the slice reorder
    that defines A' and rescaled onto the a_m = -1 chart.  The pencil there
    multiplies by g modulo y^u + 1, so its kernel is spanned by the
    coefficient row of the cofactor (y^u + 1) / g, the product over the
    complementary u - m + 1 roots; it is one-dimensional because y^u + 1
    has distinct roots.  Exactly the conjugation-closed subsets are flagged
    real.
    """
    fmt = tensorcore.Format(m, n)
    u = fmt.u
    n_paths = math.comb(u, m - 1)
    if n_paths > PATH_BUDGET:
        raise ResourceLimitError(f"C({u},{m - 1}) = {n_paths} paths exceeds the budget {PATH_BUDGET}")
    frame = tensorcore.make_start_frame(m, n)
    subsets = tuple(itertools.combinations(range(u), m - 1))
    x = polyfactor.divisor_points(polyfactor.divisor_coefficients(u, subsets))
    src, sign = zip(*tensorcore.slice_reorder(m))
    xprime = x[:, src] * np.array(sign)
    escaped = np.flatnonzero(np.abs(xprime[:, -1]) < 1e-12)
    if escaped.size:
        raise PathError(CHART_ESCAPE, f"start subset {subsets[escaped[0]]} leaves the a_m = -1 chart")
    a_rows = (-1.0 / xprime[:, -1:]) * xprime
    a_rows[:, -1] = -1.0

    # the cofactor of each divisor: the root indices outside its subset
    outside = np.ones((n_paths, u), dtype=bool)
    outside[np.arange(n_paths)[:, None], subsets] = False
    kernels = polyfactor.divisor_coefficients(u, np.nonzero(outside)[1].reshape(n_paths, n - 1))
    kernels /= np.linalg.norm(kernels, axis=1, keepdims=True)
    real = polyfactor.conjugation_closed(u, subsets)
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


def start_solutions(m: int, n: int, c: np.ndarray | None = None, seed: object = 0) -> tuple:
    """All C(u, m-1) kernel pairs of the start tensor A' as (z, residuals,
    real, subsets): rows z = (a, b) on the charts a_m = -1 and c . b = 1
    (c drawn from ``seed`` when not given), their residuals at A', their
    reality flags and the divisor index subset of each row.  Exactly the
    conjugation-closed subsets are flagged real."""
    frame, a_rows, kernels, real, subsets = _start_system(m, n)
    if c is None:
        c = _chart_vector(n, np.random.default_rng(seed))
    b_rows = _on_chart(kernels, c, subsets)
    return np.concatenate([a_rows, b_rows], axis=1), _residuals(frame.Aprime, a_rows, b_rows), real.copy(), subsets


def _solve_rows(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the stacked systems A[p] x[p] = rhs[p] with LAPACK's gesv, as
    np.linalg.solve does.  A singular row comes back NaN and raises the
    invalid flag (the tracker runs each batch with the flags off); every
    other row is solved exactly as alone."""
    return _lapack_solve(A, rhs, signature="DD->D")


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
    only when a path leaves them.  Each stack owns one Jacobian buffer of
    shape (P, u+2, N): its chart rows are written when the stack is built
    or gathered, and every evaluation writes only its top rows.  Rows are
    gathered, never masked, because a stacked product is not computed row
    by row: one row of a product of P rows can differ in its last bits from
    the same row of a product of fewer rows.
    """

    def __init__(self, B_from, B_to, gamma: complex, corrector_tol: float):
        if not corrector_tol >= MIN_CORRECTOR_TOL:
            raise ValueError(f"corrector_tol must be at least {MIN_CORRECTOR_TOL:g}, the smallest the corrector "
                             f"meets in double precision, got {corrector_tol:g}")
        if gamma == 0:
            raise ValueError("gamma must be nonzero")
        u, n, m = B_from.shape
        B0 = gamma * B_from
        S = np.stack([B0, B_to - B0])  # (2, u, n, m)
        N = m + n
        L = np.zeros((2, u, N, N), dtype=complex)
        L[:, :, :m, m:] = S.transpose(0, 1, 3, 2)  # d(M b)_i / d a_k = sum_j B_ijk b_j
        L[:, :, m:, :m] = S  # d(M b)_i / d b_j = sum_k B_ijk a_k
        # rows (s, x) of the stacked map, so that [z, t z] @ L is J_top
        self.L = L.transpose(0, 3, 1, 2).reshape(2 * N, u * N)
        self.L1 = self.L[N:]
        self.halve_top = np.append(np.full(u, 0.5), [1.0, 1.0])
        self.u, self.N = u, N
        self.tol = corrector_tol

    def _stack(self, charts):
        """A Jacobian buffer for the paths of ``charts``, chart rows written."""
        J = np.empty((len(charts), self.u + 2, self.N), dtype=complex)
        J[:, self.u :] = charts
        return J

    def _build(self, J, z, t):
        """Write the top rows of the Jacobians of paths z at their own t
        into J, in place."""
        P, u, N = len(z), self.u, self.N
        np.matmul(np.concatenate([z, t[:, None] * z], axis=1), self.L, out=J[:, :u].reshape(P, u * N))

    def _tangent(self, J, z, t):
        """dz/dt of each path at its own t, and whether its system was
        regular (the solved row is not NaN): J k = -dF/dt, where dF/dt is
        half of (L1 z) z.  Overwrites the top rows of J."""
        self._build(J, z, t)
        P, u, N = len(z), self.u, self.N
        zc = z[..., None]
        rhs = np.zeros((P, N, 1), dtype=complex)
        rhs[:, :u] = -0.5 * ((z @ self.L1).reshape(P, u, N) @ zc)
        k = _solve_rows(J, rhs[..., 0])
        return k, ~np.logical_or.reduce(np.isnan(k), axis=1)

    def _correct(self, J, z, t, iters):
        """Newton on each path at its own t, from the Jacobian buffer J of
        z's stack (its top rows are overwritten); returns (z, converged,
        total correction size) and leaves the input z untouched.  A path
        leaves the loop on convergence, on breakdown (residual beyond 1e10
        or not finite) or on a singular Jacobian, where its solve comes back
        NaN and so does its next residual; the last two are not converged.
        A row's residual is checked at most iters + 1 times, around at most
        iters solves.  Rows that do not converge come back as given."""
        tol, halve_top, rhs = self.tol, self.halve_top, self.rhs_full
        out = z.copy()
        ok = np.zeros(len(z), dtype=bool)
        moved = np.zeros(len(z))
        # the rows still iterating, gathered anew only when one leaves
        live, zl, tl, ml = np.arange(len(z)), z, t, moved
        for it in range(iters + 1):
            self._build(J, zl, tl)
            F = np.matmul(J, zl[..., None])[..., 0]
            F *= halve_top
            F -= rhs
            rn = np.maximum.reduce(np.abs(F), axis=1)
            fine = rn <= 1e10  # False for NaN as well
            conv = fine & (rn < tol * np.fmax(1.0, np.maximum.reduce(np.abs(zl), axis=1)))
            if np.count_nonzero(conv):
                rows = live[conv]
                ok[rows] = True
                out[rows] = zl[conv]
                moved[rows] = ml[conv]
            if it == iters:
                break
            more = fine ^ conv
            n_more = np.count_nonzero(more)
            if n_more < len(more):
                if not n_more:
                    break
                live, zl, tl, ml, J, F = live[more], zl[more], tl[more], ml[more], J[more], F[more]
            dz = _solve_rows(J, F)
            zl = zl - dz
            ml = ml + np.maximum.reduce(np.abs(dz), axis=1)
        return out, ok, moved

    def run(self, z0: np.ndarray, charts: np.ndarray, delta: complex) -> tuple[np.ndarray, dict[int, PathError]]:
        """Track every row of z0, on the chart rows of the same row of
        ``charts``, from t = 0 to 1.  Returns the endpoints and the failed
        rows with their errors; failed rows of the endpoint array are
        meaningless."""
        # right-hand side of the residual: zero on the top rows, the chart values below
        self.rhs_full = np.zeros(self.u + 2, dtype=complex)
        self.rhs_full[self.u :] = delta, 1.0
        z = z0.astype(complex)
        failed: dict[int, PathError] = {}
        size = max(1, STACK_ENTRIES // self.N**2)
        for lo in range(0, len(z), size):
            # singular rows come back NaN and breaking-down rows may
            # overflow; the tracker reads both off the values
            with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
                z[lo : lo + size], batch = self._run(z[lo : lo + size], charts[lo : lo + size])
            failed.update((lo + p, exc) for p, exc in batch.items())
        return z, failed

    def _run(self, z, charts):
        # tracks one batch in place; every path still moving has taken the
        # same number of steps, so the step budget is one count
        P = len(z)
        failed: dict[int, PathError] = {}
        dead = np.zeros(P, dtype=bool)
        # the paths still moving: batch row, z, t, step, Jacobian buffer
        idx, za, ta, ha, J = np.arange(P), z, np.zeros(P), np.full(P, INITIAL_STEP), self._stack(charts)

        def fail(sel, reason, message):
            for p in np.flatnonzero(sel):
                dead[idx[p]] = True
                failed[int(idx[p])] = PathError(reason, message.format(t=ta[p]))

        for _ in range(MAX_STEPS):
            if not idx.size:
                break
            ha = np.minimum(ha, 1.0 - ta)
            k1, ok1 = self._tangent(J, za, ta)
            half = 0.5 * ha
            k2, ok2 = self._tangent(J, za + half[:, None] * k1, ta + half)
            regular = ok1 & ok2  # a singular tangent halves the step like a rejection

            dz_pred = ha[:, None] * k2
            t_new = ta + ha
            z_new, ok, moved = self._correct(J, za + dz_pred, t_new, MAX_NEWTON)
            # basin guard: the corrector must only refine the prediction,
            # a large pullback signals a possible jump onto another path
            guard = np.maximum(np.maximum.reduce(np.abs(dz_pred), axis=1), 1e-8)
            ok &= regular & (moved <= 0.25 * guard)
            ta = np.where(ok, t_new, ta)
            za = np.where(ok[:, None], z_new, za)
            ha = ha * np.where(ok, 1.0 + (moved < 0.01 * guard), 0.5)

            norm = np.maximum.reduce(np.abs(za), axis=1)
            leave = (ta >= 1.0) | (ha < MIN_STEP) | (norm > BLOWUP_NORM)
            if np.count_nonzero(leave):
                under = ~ok & (ha < MIN_STEP)
                fail(under & ~regular, PATH_STALL, "singular tangent at t = {t:.6f}")
                fail(under & regular, PATH_STALL, "step underflow at t = {t:.6f}")
                blown = regular & ~under & (norm > BLOWUP_NORM)
                fail(blown, AT_INFINITY, f"coordinate norm beyond {BLOWUP_NORM:.0e} at t = {{t:.6f}}")
                done = (ta >= 1.0) & ~blown
                z[idx[done]] = za[done]
                stay = ~(under | blown | done)
                idx, za, ta, ha, J = idx[stay], za[stay], ta[stay], ha[stay], J[stay]
        # the paths still moving have used up the step budget
        fail(np.ones(idx.size, dtype=bool), PATH_STALL, f"step budget {MAX_STEPS} exhausted at t = {{t:.6f}}")

        ends = np.flatnonzero(~dead)
        z[ends], ok, _ = self._correct(self._stack(charts[ends]), z[ends], np.ones(len(ends)), max(MAX_NEWTON, 20))
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
    z0: np.ndarray,
    gamma: complex,
    c: np.ndarray | None = None,
    corrector_tol: float = CORRECTOR_TOL,
) -> np.ndarray:
    """Continue one start row z0 = (a, b) from B_from to B_to along the
    detour constant gamma and return the endpoint row.

    Raises PathError with reason PATH_STALL (step underflow or step
    budget), PATH_DIVERGE (corrector breakdown at the endpoint) or
    AT_INFINITY (coordinate blowup).  The a chart is a_m = -1; the b chart
    defaults to the affine functional that z0 already satisfies.
    """
    u, n, m = B_from.shape
    if B_to.shape != (u, n, m):
        raise ValueError(f"target shape {B_to.shape} does not match start shape {(u, n, m)}")
    tracker = _Lockstep(B_from.data, B_to.data, gamma, corrector_tol)
    if c is None:
        # recover an affine functional pinning b from the start point itself
        c = z0[m:].conj() / np.linalg.norm(z0[m:]) ** 2
    z, failed = tracker.run(z0[None], _charts(c[None], np.eye(m)[-1:]), -1.0)
    if failed:
        raise failed[0]
    return z[0]


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


def close_pairs(z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with max-norm |z_i - w_j| < ``DEDUP_TOL``, as
    two index arrays.  Such a pair also differs by less than the tolerance
    in Re [:, 0], so each w_j's candidates are the rows of z, sorted on that
    key, within twice the tolerance of its key (rounding at the bounds cannot
    drop a pair); the max-norm test confirms them.
    """
    order = np.argsort(z[:, 0].real, kind="stable")
    key, at = z[order, 0].real, w[:, 0].real
    lo, hi = np.searchsorted(key, [at - 2 * DEDUP_TOL, at + 2 * DEDUP_TOL])
    count = hi - lo
    j = np.repeat(np.arange(len(w)), count)
    i = order[np.arange(len(j)) + np.repeat(hi - np.cumsum(count), count)]
    hit = np.abs(z[i] - w[j]).max(axis=1) < DEDUP_TOL
    return i[hit], j[hit]


def _first_kept(z: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """Endpoint collisions among the rows of z, taken in order: a row within
    ``DEDUP_TOL`` (max-norm) of an earlier kept row is not kept, and is
    mapped to the first such row.  Returns the kept mask and that map.
    """
    i, j = close_pairs(z, z)
    later, earlier = i[i > j], j[i > j]
    order = np.lexsort((earlier, later))
    kept = np.ones(len(z), dtype=bool)
    named: dict[int, int] = {}
    # pairs in (later, earlier) row order: every earlier row is settled first
    for hi, lo in zip(later[order].tolist(), earlier[order].tolist()):
        if kept[hi] and kept[lo]:
            kept[hi] = False
            named[hi] = lo
    return kept, named


def solve_all(B: tensorcore.Tensor3, seed: object = 0, corrector_tol: float = CORRECTOR_TOL) -> SolveReport:
    """Track every start path to the target tensor B (shape u x n x m).

    All paths are tracked in lockstep, each with its own step control.
    Endpoints closer than ``DEDUP_TOL`` in chart coordinates are collisions:
    the later path is recorded as a WARN_MULTIPLICITY failure rather than
    merged silently.  Paths hitting infinity are retried once, together,
    each on its own random complex chart on a.  Determinism: the seed fixes
    gamma and the charts, and with them every path.
    """
    fmt = tensorcore.kernel_format(B)
    m, n = fmt.m, fmt.n
    bad = np.count_nonzero(~np.isfinite(B.data))
    if bad:
        raise ValueError(f"target tensor has {bad} non-finite entries")
    rng = np.random.default_rng(seed)
    c = _chart_vector(n, rng)
    gamma = _sample_gamma(rng)

    frame, a0, kernels, _, subsets = _start_system(m, n)
    b0 = _on_chart(kernels, c, subsets)
    n_paths = len(a0)
    cs = np.broadcast_to(c, (n_paths, n))
    e_m = np.broadcast_to(np.eye(m)[-1], (n_paths, m))
    tracker = _Lockstep(frame.Aprime.data, B.data, gamma, corrector_tol)
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

    # path conservation: every start index ends as exactly one endpoint or failure
    seen = sorted(keep.tolist() + [f.index for f in failures])
    if seen != list(range(n_paths)):
        raise RuntimeError(f"path conservation violated: {n_paths} paths, indices {seen}")

    z = z[keep]
    a_k, b_k = z[:, :m], z[:, m:]
    return SolveReport(
        m=m,
        n=n,
        n_paths=n_paths,
        solutions=z,
        residuals=_residuals(B, a_k, b_k),
        real=projectively_real(a_k, b_k, REALITY_TOL),
        path_index=keep,
        failures=failures,
        gamma=gamma,
        chart_b=c,
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
