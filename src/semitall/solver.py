"""Homotopy continuation for the bilinear kernel system M(a, B) b = 0.

The start system is the start frame's tensor A', whose solution set is
fully known: each of the C(u, m-1) monic degree-(m-1) divisors h of
y^u + 1 yields one projective solution, obtained from the coefficient
point of h by the slice reordering that defines A'.  Exactly the
conjugation-closed divisor selections give real solutions, so the real
start count equals the closed-form divisor count.

Charts: a lives on the affine slice a_m = -1 and b on c . b = 1 for a
fixed random real vector c, so the tracked system is square of size
u + 1 in the m + n - 1 = u + 1 unknowns (a_1..a_(m-1), b).  Paths follow

    B(t) = (1 - t) * gamma * B_from + t * B_to,   t: 0 -> 1,

with gamma a random unit complex constant (detour away from the
discriminant), an order-2 tangent predictor, a Newton corrector with a
basin guard, and adaptive step control.  All paths of a tracking pass
are tracked in lockstep as stacked arrays, each path with its own step
control.

A solve first tries the Newton route: Newton straight at the target from
the start rows, declined when some row's first step leaves the basin and
a second step does not shrink every row's step by the basin fraction.
The target and the chart are real, so Newton runs only on the real part
of each real start row and on one row of each conjugate pair, with the
target's own t = 1 map; each partner row is the conjugate of its row's
result, and the real rows stay exactly real.  C(u, m-1) is the generic
root count, so that many converged, pairwise distinct and
conjugation-closed roots are all of them; any other outcome tracks every
path instead, from the start rows, chart and gamma.  The start system,
one tracked row and a full solve each come back as the SolveReport that
``_finish`` builds.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# The LAPACK gufunc behind np.linalg.solve.  At the tracker's (m+n-1) x (m+n-1)
# systems np.linalg.solve's Python wrapper costs about as much as the
# stacked LAPACK call, and the gufunc returns a singular row as NaN instead
# of raising for the whole stack.
from numpy.linalg._umath_linalg import solve1 as _lapack_solve

from . import polyfactor, tensorcore
from .errors import (
    AT_INFINITY,
    CHART_ESCAPE,
    PATH_STALL,
    WARN_MULTIPLICITY,
    DegenerateStartError,
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

# The basin fraction.  The tracker rejects a step once a row's summed Newton
# corrections pass this share of the step's prediction (max-norms).  The
# Newton route declines a target once a row's first Newton step passes this
# share of max(1, |z|inf), unless every row's second step is below this
# share of its first.
BASIN = 0.25

# A target whose largest entry lies outside [2^-SCALE_BAND, 2^SCALE_BAND] is
# solved at the power-of-two multiple whose largest entry is nearest 1, the
# largest entry of every start tensor A'.  The band is the narrowest that
# leaves every benchmark input and every recorded CLI output unscaled: the
# widest of them, a Gaussian (3,3) transfer target, sits at 2^-11.
SCALE_BAND = 11

# The names of the routes to a report's rows (``SolveReport.route``): the
# start system's closed-form roots, Newton from the start rows at the
# target, and tracked paths.
START, NEWTON, TRACKED = "START", "NEWTON", "TRACKED"

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

# The corrector's tolerance: Newton stops once the residual's max-norm is
# below it times max(1, max |z|).  It sits inside the range measured safe:
# on 45 Gaussian targets at (3,3), (3,4) and (4,4) the corrector meets 5e-15
# with no path stalling, and on 99 complete Gaussian transfer tensors at
# (3,3), (3,5), (4,4) and (5,5) the real and endpoint counts hold up to 1e-7.
CORRECTOR_TOL = 1e-12


@dataclass(frozen=True)
class PathFailureInfo:
    index: int
    reason: str
    detail: str = ""


@dataclass(frozen=True, eq=False)
class SolveReport:
    """All endpoints of one continuation run plus bookkeeping.

    The endpoints are parallel arrays with one row per kept path, in path
    order: ``solutions`` holds the rows (a, b) of shape (K, m+n) on the
    charts a_m = -1 and c . b = 1, ``residuals`` the absolute 2-norms of
    M(a, B) b at the target B (read them against the corrector's bound
    sqrt(u) * CORRECTOR_TOL * max(1, |z|inf)), ``real`` the reality flags
    and ``path_index`` the start index each row was tracked or, on the
    Newton route, began its Newton run from.  ``route`` names the route
    that produced the rows: START for the start system's roots
    (``start_solutions``), NEWTON or TRACKED for a solve (``solve_all``,
    ``track_path``).

    Path conservation: len(solutions) + len(failures) equals n_paths.
    ``complete`` is True only when no path failed, which is what the
    rank certificate requires before trusting the real count.  Both routes
    of a solve run in one batch loop and report their failed rows alike.

    A report is frozen: its arrays are read-only views and its failures a
    tuple of frozen PathFailureInfo, so the audit ``closure``, computed on
    first read and cached, stays the audit of the report's endpoints.
    """

    m: int
    n: int
    n_paths: int
    solutions: np.ndarray
    residuals: np.ndarray
    real: np.ndarray
    path_index: np.ndarray
    failures: tuple[PathFailureInfo, ...]
    gamma: complex
    chart_b: np.ndarray
    route: str

    def __post_init__(self):
        object.__setattr__(self, "failures", tuple(self.failures))
        for name in ("solutions", "residuals", "real", "path_index", "chart_b"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def real_count(self) -> int:
        return int(self.real.sum())

    @functools.cached_property
    def closure(self) -> list[str]:
        """Notes on every way the endpoints of a complete solve of a real
        target break conjugate closure: a non-real endpoint whose conjugate
        lies within ``DEDUP_TOL`` (max-norm; the charts are real) of no other
        non-real endpoint, and a real count of the wrong parity.  Empty when
        paths failed, as the failures say why.  Computed once per report."""
        if self.failures:
            return []
        Z, index = self.solutions[~self.real], self.path_index[~self.real]
        i, j = close_pairs(Z, Z.conj())
        paired = np.zeros(len(Z), dtype=bool)
        paired[i[i != j]] = True  # an endpoint is not its own partner
        notes = [f"path {k}: no conjugate endpoint within {DEDUP_TOL:g}" for k in index[~paired].tolist()]
        if (self.n_paths - self.real_count) % 2:
            notes.append(f"{self.real_count} real of {self.n_paths} endpoints: the non-real ones cannot pair up")
        return notes


def _draws(n: int, rng: np.random.Generator) -> tuple[np.ndarray, complex]:
    """The seed's first two draws: the b-chart vector c, a real unit vector,
    then gamma, of unit modulus and bounded away from +-1 so the detour
    stays off the real axis crossings."""
    v = rng.standard_normal(n)
    theta = rng.uniform(0.1 * np.pi, 0.9 * np.pi)
    if rng.random() < 0.5:
        theta = -theta
    return v / np.linalg.norm(v), complex(np.cos(theta), np.sin(theta))


@dataclass(frozen=True, eq=False, slots=True)
class _StartSystem:
    frame: tensorcore.StartFrame
    a_rows: np.ndarray
    kernels: np.ndarray
    subsets: tuple[tuple[int, ...], ...]
    partner: np.ndarray
    fixed: np.ndarray
    rep: np.ndarray


@functools.lru_cache(maxsize=16)
def _start_system(m: int, n: int) -> _StartSystem:
    """The start frame of format (m, n) and its C(u, m-1) start points,
    built once per process after the budget check: the frame, the a rows,
    the kernel vectors b with unit 2-norm, the divisor index subsets, each
    start index's conjugation partner, the starts that are their own
    partner (``fixed``, the real starts) and the lower index of each
    conjugate pair (``rep``).
    The arrays, the frame's A' and W0 too, are read-only; callers copy what
    they hand out.

    For each (m-1)-subset of the roots of y^u + 1, the coefficient point of
    the corresponding monic divisor g is remapped through the slice reorder
    that defines A' and rescaled onto the a_m = -1 chart.  The pencil there
    multiplies by g modulo y^u + 1, so its kernel is spanned by the
    coefficient row of the cofactor (y^u + 1) / g, the product over the
    complementary u - m + 1 roots; it is one-dimensional because y^u + 1
    has distinct roots.  Conjugation maps root k to root u-1-k, so the
    partner of a start is the start of the mirrored subset, and the starts
    that are their own partner are the closed subsets, the real divisors.
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
    # xprime[:, -1] is the constant coefficient of a monic divisor of
    # y^u + 1, a product of roots of modulus 1, so the rescaling is safe
    a_rows = (-1.0 / xprime[:, -1:]) * xprime
    a_rows[:, -1] = -1.0

    # the cofactor of each divisor: the root indices outside its subset
    outside = np.ones((n_paths, u), dtype=bool)
    outside[np.arange(n_paths)[:, None], subsets] = False
    kernels = polyfactor.divisor_coefficients(u, np.nonzero(outside)[1].reshape(n_paths, n - 1))
    kernels /= np.linalg.norm(kernels, axis=1, keepdims=True)

    index = {subset: k for k, subset in enumerate(subsets)}
    partner = np.array([index[tuple(u - 1 - i for i in reversed(subset))] for subset in subsets], dtype=int)
    k = np.arange(n_paths)
    fixed, rep = np.flatnonzero(partner == k), np.flatnonzero(partner > k)
    for arr in (frame.Aprime.data, frame.W0, a_rows, kernels, partner, fixed, rep):
        arr.flags.writeable = False
    return _StartSystem(frame=frame, a_rows=a_rows, kernels=kernels, subsets=subsets, partner=partner, fixed=fixed, rep=rep)


@functools.lru_cache(maxsize=16)
def _layout(m: int, n: int):
    """The index arrays of the tracker's layout z = (a_1..a_(m-1), b, a_m)
    for format (m, n), built once per process and read-only: the (a, b)
    index of each entry of z, and the entry of z that holds each (a, b)
    index (its first m entries, those of a)."""
    N = m + n
    order = np.r_[: m - 1, m:N, m - 1]
    inverse = np.argsort(order)
    for arr in (order, inverse):
        arr.flags.writeable = False
    return order, inverse


def _start_rows(m: int, n: int, c: np.ndarray) -> np.ndarray:
    """The start rows (a, b), one per start path, with b rescaled onto the
    chart c . b = 1; a new array."""
    start = _start_system(m, n)
    cb = start.kernels @ c
    flat = np.flatnonzero(np.abs(cb) < 1e-10)
    if flat.size:
        raise DegenerateStartError(f"chart vector nearly orthogonal to the kernel at {start.subsets[flat[0]]}")
    return np.concatenate([start.a_rows, start.kernels / cb[:, None]], axis=1)


def start_solutions(m: int, n: int, seed: object = 0) -> SolveReport:
    """All C(u, m-1) kernel pairs of the start tensor A', as the report that
    ``_finish`` builds for the endpoints of the identity homotopy on A',
    with route START.
    Row k is start path k, the k-th (m-1)-subset of the root indices in
    ``itertools.combinations`` order, on the charts a_m = -1 and c . b = 1
    for the chart vector c that ``solve_all`` draws first from the same
    seed.  A failure of the audit raises DegenerateStartError naming the
    first."""
    _seed_entropy(seed)
    frame = _start_system(m, n).frame
    c = _draws(n, np.random.default_rng(seed))[0]
    # A' has largest entry 1, so its unit shift is 0
    report = _finish(frame.Aprime, _start_rows(m, n, c), {}, 1.0 + 0.0j, c, START, 0)
    if report.failures:
        raise DegenerateStartError("start row {0.index}: {0.reason}, {0.detail}".format(report.failures[0]))
    return report


def _solve_rows(A: np.ndarray, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Solve the stacked systems A[p] x[p] = rhs[p] with LAPACK's gesv, as
    np.linalg.solve does, into ``out``.  A singular row comes back NaN and
    raises the invalid flag (the tracker runs its batches with the flags
    off); every other row is solved exactly as alone."""
    return _lapack_solve(A, rhs, signature="DD->D", out=out)


class _Lockstep:
    """Paths of the homotopy B(t) = gamma * B_from + t * (B_to - gamma * B_from),
    tracked in lockstep on the charts a_m = -1 and c . b = 1; without
    B_from, the system of B_to alone, for Newton at t = 1.

    A path is held as z = (a_1..a_(m-1), b, a_m), whose first K = m+n-1
    entries are its unknowns: a_m = -1 is no unknown and never moves.  Every
    path solves the square system [M(a, B(t)) b ; c . b - 1], whose one
    chart row is [0, c].  The system is bilinear, so the top u rows of the
    Jacobian are linear in z: J_top(z, t) = L0 z + t L1 z, built for every
    path by one matrix product [z, t z] @ [L0; L1].  The b-columns of J_top
    are M(a, B(t)), so the residual is those columns times b, and its
    t-derivative the b-columns of L1 z times b.  The system of B_to alone
    has the one-tensor map L = L0 of B_to, and J_top = z @ L.

    Each path keeps its own t, step and status; every stage of the
    predictor-corrector makes one stacked evaluation and one stacked K x K
    solve over the paths still in that stage, and the stacks are gathered
    anew only when a path leaves them.  A path leaves the corrector's stack
    on convergence, on breakdown, or once its summed correction passes a
    quarter of its prediction (the basin guard), where the step is
    rejected whatever Newton would do next.  Each stack owns one Jacobian
    buffer of shape (P, u+1, K): its chart row is written when the stack
    is built or gathered, and every evaluation writes only its top rows.
    Rows are gathered, never masked, because a stacked product is not
    computed row by row: one row of a product of P rows can differ in its
    last bits from the same row of a product of fewer rows.
    """

    def __init__(self, B_to, c: np.ndarray, B_from=None, gamma: complex = 1.0):
        if gamma == 0:
            raise ValueError("gamma must be nonzero")
        u, n, m = B_to.shape
        if B_from is None:
            S = np.asarray(B_to, dtype=complex)[None]
        else:
            B0 = gamma * B_from
            S = np.empty((2, u, n, m), dtype=complex)
            S[0] = B0
            np.subtract(B_to, B0, out=S[1])
        S = S.transpose(0, 3, 1, 2)  # (1 or 2, m, u, n)
        N, K = m + n, m + n - 1
        self.order, self.inverse = _layout(m, n)
        # rows (s, x) over all of z and columns (i, y) over the unknowns, so that [z, t z] @ L
        # (z @ L for one tensor) is J_top
        L = np.zeros((len(S), N, u, K), dtype=complex)
        L[:, self.inverse[:m], :, m - 1 :] = S  # d(M b)_i / d b_j = sum_k B_ijk a_k
        L[:, m - 1 : K, :, : m - 1] = S[:, : m - 1].transpose(0, 3, 2, 1)  # d(M b)_i / d a_k = sum_j B_ijk b_j
        self.L = L.reshape(len(S) * N, u * K)
        self.L1 = self.L[N:]
        self.chart = np.zeros(K)
        self.chart[m - 1 :] = c
        self.m, self.N, self.u, self.K = m, N, u, K

    def _stack(self, P: int):
        """A Jacobian buffer for P paths, chart row written."""
        J = np.empty((P, self.u + 1, self.K), dtype=complex)
        J[:, self.u] = self.chart
        return J

    def _build(self, J, z, t):
        """Write the top rows of the Jacobians of paths z at their own t into J."""
        P, u, K = len(z), self.u, self.K
        lift = z if len(self.L) == self.N else np.concatenate([z, t[:, None] * z], axis=1)
        np.matmul(lift, self.L, out=J[:, :u].reshape(P, u * K))

    def _evaluate(self, J, z, t):
        """The values [M(a, B(t)) b ; c . b - 1] of the system at paths z at
        their own t, after writing the top rows of their Jacobians into J."""
        m, u, K = self.m, self.u, self.K
        self._build(J, z, t)
        F = np.matmul(J[..., m - 1 :], z[:, m - 1 : K, None])[..., 0]
        F[:, u] -= 1.0
        return F

    def _tangent(self, J, z, t):
        """dz/dt of each path at its own t, NaN where its system is singular:
        J k = -M(a, B_to - gamma B_from) b, the b-columns of L1 z times b.
        Overwrites the top rows of J."""
        self._build(J, z, t)
        P, m, u, K = len(z), self.m, self.u, self.K
        rhs = np.zeros((P, K), dtype=complex)
        top = rhs[:, :u, None]
        np.negative(np.matmul((z @ self.L1).reshape(P, u, K)[..., m - 1 :], z[:, m - 1 : K, None], out=top), out=top)
        k = np.zeros(z.shape, dtype=complex)  # a_m does not move
        _solve_rows(J, rhs, k[:, :K])
        return k

    def _correct(self, J, z, t, limit, iters):
        """Newton on each path at its own t, from the Jacobian buffer J of
        z's stack (its top rows are overwritten); returns (z, converged,
        total correction size), leaving the input z untouched and the rows
        that do not converge as given.  The total correction is the sum of
        the max-norms of a row's Newton steps; it only grows, so a row
        leaves once it passes its ``limit``, which it could not converge
        within.  A row also leaves on convergence, on breakdown (residual
        beyond 1e10 or not finite) and on a singular Jacobian, whose solve
        comes back NaN and so does its next residual.  A row's residual is
        checked at most iters + 1 times, around at most iters solves, and
        the loop ends once every row has left."""
        out, ok, moved = z.copy(), np.zeros(len(z), dtype=bool), np.zeros(len(z))
        # the rows still iterating, gathered anew only when one leaves
        live, zl, tl, ml, ll = np.arange(len(z)), z, t, moved, limit
        for it in range(iters + 1):
            F = self._evaluate(J, zl, tl)
            rn = np.maximum.reduce(np.abs(F), axis=1)
            fine = (rn <= 1e10) & (ml <= ll)  # False for NaN as well
            conv = fine & (rn < CORRECTOR_TOL * np.fmax(1.0, np.maximum.reduce(np.abs(zl), axis=1)))
            n_conv = np.count_nonzero(conv)
            if n_conv == len(conv):  # every row converged: no mask to apply
                ok[live], out[live], moved[live] = True, zl, ml
                break
            if n_conv:
                rows = live[conv]
                ok[rows], out[rows], moved[rows] = True, zl[conv], ml[conv]
            n_more = np.count_nonzero(fine) - n_conv
            if it == iters or not n_more:
                break
            if n_more < len(conv):
                more = fine ^ conv
                live, zl, tl, ml, ll, J, F = live[more], zl[more], tl[more], ml[more], ll[more], J[more], F[more]
            dz = np.zeros(zl.shape, dtype=complex)
            _solve_rows(J, F, dz[:, : self.K])
            zl = zl - dz
            ml = ml + np.maximum.reduce(np.abs(dz), axis=1)
        return out, ok, moved

    def _batches(self, z0: np.ndarray, step) -> tuple[np.ndarray, dict[int, tuple[str, str]]]:
        """The rows (a, b) of z0 after ``step`` and the (reason, detail) of each failed
        row, whose row is meaningless.  ``step`` runs in the tracker's layout on
        consecutive batches of whole rows, updating each in place, and returns its failures."""
        z = np.asarray(z0, dtype=complex)[:, self.order]
        failed: dict[int, tuple[str, str]] = {}
        size = max(1, STACK_ENTRIES // self.K**2)
        # singular rows come back NaN and breakdowns may overflow; the passes read both off the values
        with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
            for lo in range(0, len(z), size):
                failed.update((lo + p, error) for p, error in step(z[lo : lo + size]).items())
        return z[:, self.inverse], failed

    def run(self, z0: np.ndarray) -> tuple[np.ndarray, dict[int, tuple[str, str]]]:
        """Track every row (a, b) of z0, which lies on the charts, from t = 0
        to 1; returns the endpoints and the failures as ``_batches`` does."""
        return self._batches(z0, self._run)

    def newton(self, z0: np.ndarray) -> tuple[np.ndarray, dict[int, tuple[str, str]]]:
        """Newton at t = 1 from every row (a, b) of z0, which lies on the
        charts, in ``_batches``; a real row of z0 stays exactly real when
        the map is real.  The pre-test is one stacked step: when one
        row's step passes BASIN * max(1, |z|inf), its second chance takes one
        more, and every row of the batch fails unless each row's second step
        is below BASIN times its first.  A row fails that does not converge
        in MAX_NEWTON steps, the pre-test's included."""
        return self._batches(z0, self._newton)

    def _newton(self, z):
        # Newton on one batch in place, returning its failures
        P = len(z)
        J, t, zk = self._stack(P), np.ones(P), z
        # the bound on each row's first step (the pre-test), then on its
        # second (the second chance): BASIN times the row's first
        bound = BASIN * np.fmax(1.0, np.maximum.reduce(np.abs(z), axis=1))
        for taken in range(1, min(2, MAX_NEWTON) + 1):
            dz = np.zeros(z.shape, dtype=complex)
            _solve_rows(J, self._evaluate(J, zk, t), dz[:, : self.K])
            zk, step = zk - dz, np.maximum.reduce(np.abs(dz), axis=1)
            if np.all(step < bound):  # False for a NaN step as well
                break
            bound = BASIN * step
        else:
            return dict.fromkeys(range(P), (PATH_STALL, "pre-test: a first Newton step passes the basin"))
        z[:], ok, _ = self._correct(J, zk, t, np.full(P, np.inf), MAX_NEWTON - taken)
        return dict.fromkeys(np.flatnonzero(~ok).tolist(), (PATH_STALL, f"no convergence in {MAX_NEWTON} Newton steps"))

    def _run(self, z):
        # tracks one batch in place and returns its failures; every path
        # still moving has taken the same number of steps, so the step
        # budget is one count.  A path finishes only on a step whose
        # corrector converged at t = 1, so its endpoint needs no more Newton.
        P = len(z)
        failed: dict[int, tuple[str, str]] = {}
        # the paths still moving: batch row, z, t, step, Jacobian buffer
        idx, za, ta, ha, J = np.arange(P), z, np.zeros(P), np.full(P, INITIAL_STEP), self._stack(P)

        def fail(sel, reason, message):
            for p in np.flatnonzero(sel):
                failed[int(idx[p])] = (reason, message.format(t=ta[p]))

        for _ in range(MAX_STEPS):
            if not idx.size:
                break
            ha = np.minimum(ha, 1.0 - ta)
            half = 0.5 * ha
            k = self._tangent(J, za, ta)
            # a singular tangent is NaN, and so are the midpoint, the second
            # tangent and the basin guard below, which fails the corrector
            k = self._tangent(J, za + half[:, None] * k, ta + half)

            dz_pred = ha[:, None] * k
            t_new = ta + ha
            # basin guard: the corrector must only refine the prediction,
            # a large pullback signals a possible jump onto another path, so
            # a row stops correcting once its corrections pass a quarter of it
            guard = np.maximum(np.maximum.reduce(np.abs(dz_pred), axis=1), 1e-8)
            z_new, ok, moved = self._correct(J, za + dz_pred, t_new, BASIN * guard, MAX_NEWTON)
            ta = np.where(ok, t_new, ta)
            za = np.where(ok[:, None], z_new, za)
            ha = ha * np.where(ok, 1.0 + (moved < 0.01 * guard), 0.5)

            norm = np.maximum.reduce(np.abs(za), axis=1)
            leave = (ta >= 1.0) | (ha < MIN_STEP) | (norm > BLOWUP_NORM)
            if np.count_nonzero(leave):
                under = ~ok & (ha < MIN_STEP)
                blown = ~under & (norm > BLOWUP_NORM)
                if np.count_nonzero(under | blown):
                    regular = ~np.logical_or.reduce(np.isnan(k), axis=1)
                    blown &= regular
                    fail(under & ~regular, PATH_STALL, "singular tangent at t = {t:.6f}")
                    fail(under & regular, PATH_STALL, "step underflow at t = {t:.6f}")
                    fail(blown, AT_INFINITY, f"coordinate norm beyond {BLOWUP_NORM:.0e} at t = {{t:.6f}}")
                done = (ta >= 1.0) & ~blown
                z[idx[done]] = za[done]
                stay = ~(under | blown | done)
                idx, za, ta, ha, J = idx[stay], za[stay], ta[stay], ha[stay], J[stay]
        # the paths still moving have used up the step budget
        fail(np.ones(idx.size, dtype=bool), PATH_STALL, f"step budget {MAX_STEPS} exhausted at t = {{t:.6f}}")
        return failed


def _rotation(d: np.ndarray) -> np.ndarray:
    """The unitary matrix whose rows are the conjugated columns 2..m of a
    unitary Q with first column parallel to conj(d), then d / |d|."""
    d = d / np.linalg.norm(d)
    Q = np.linalg.qr(np.column_stack([d.conj(), np.eye(len(d))[:, 1:]]))[0]
    return np.vstack([Q[:, 1:].conj().T, d])


def _unit_shift(data: np.ndarray) -> int:
    """The exponent e of the power of two 2^e that ``solve_all`` solves the
    target ``data`` at: 0 while its largest entry lies within
    [2^-SCALE_BAND, 2^SCALE_BAND], else the e that brings that entry nearest
    1.  M(a, 2^e B) b = 2^e M(a, B) b, and the product is exact barring
    overflow and underflow, so 2^e B has the kernel pairs of B."""
    peak = np.abs(data).max()
    shift = -round(math.log2(peak)) if peak > 0 else 0
    return shift if abs(shift) > SCALE_BAND else 0


def _require_finite(B: tensorcore.Tensor3, what: str = "target tensor") -> None:
    """Refuse a tensor with a NaN or infinite entry, counting them, as
    ``what`` in the message: no path reaches such a target, and
    ``_unit_shift`` cannot scale it."""
    bad = np.count_nonzero(~np.isfinite(B.data))
    if bad:
        raise ValueError(f"{what} has {bad} non-finite entries")


def _residuals(B: tensorcore.Tensor3, a: np.ndarray, b: np.ndarray, shift: int) -> np.ndarray:
    """2-norms of M(a_p, B) b_p for stacked rows a (P, m) and b (P, n),
    evaluated at 2^shift B and scaled back exactly.  Callers pass
    ``_unit_shift(B.data)``, the scale ``solve_all`` solves B at, so that a
    target far from unit scale overflows no square."""
    # contract b first: the (P, u, m) intermediate is the smaller, m <= n
    Bb = np.einsum("ijk,pj->pik", np.ldexp(B.data, shift).astype(complex), b)
    return np.ldexp(np.linalg.norm(np.einsum("pik,pk->pi", Bb, a), axis=1), -shift)


def track_path(
    B_from: tensorcore.Tensor3,
    B_to: tensorcore.Tensor3,
    z0: np.ndarray,
    gamma: complex,
    c: np.ndarray,
) -> SolveReport:
    """Continue one start row z0 = (a, b), on the charts a_m = -1 and
    c . b = 1, from B_from to B_to along the detour constant gamma, and
    return the one-path report that ``_finish`` builds at B_to.  A failed
    path is its one failure: PATH_STALL (singular tangent, step underflow
    or step budget) or AT_INFINITY (coordinate blowup), with no retry.
    """
    u, n, m = B_from.shape
    if B_to.shape != (u, n, m):
        raise ValueError(f"target shape {B_to.shape} does not match start shape {(u, n, m)}")
    _require_finite(B_to)
    z, failed = _Lockstep(B_to.data, c, B_from.data, gamma).run(z0[None])
    return _finish(B_to, z, failed, gamma, c, TRACKED, _unit_shift(B_to.data))


def _aligned(v: np.ndarray) -> np.ndarray:
    # divide each row by its entry of largest modulus; a projective point
    # is real iff the result is entrywise real
    return v / v[np.arange(len(v)), np.abs(v).argmax(axis=1), None]


def projectively_real(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Whether each row pair (a, b) of the stacks a (P, m) and b (P, n) is
    real as a pair of projective points, one flag per row.

    Each vector is first rescaled by its entry of largest modulus (phase
    alignment); conjugate pairs are accepted or rejected together by
    symmetry.
    """
    imag = np.maximum(
        np.maximum.reduce(np.abs(_aligned(a).imag), axis=1), np.maximum.reduce(np.abs(_aligned(b).imag), axis=1)
    )
    return imag < tol


def close_pairs(z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with max-norm |z_i - w_j| < ``DEDUP_TOL``, as
    two index arrays.  Such a pair also differs by less than the tolerance
    in Re [:, 0], so each w_j's candidates are the rows of z, sorted on that
    key, within twice the tolerance of its key (rounding at the bounds cannot
    drop a pair); the max-norm test confirms them.
    """
    key, at = z[:, 0].real, w[:, 0].real
    order = key.argsort(kind="stable")
    key = key[order]
    lo, hi = key.searchsorted(at - 2 * DEDUP_TOL), key.searchsorted(at + 2 * DEDUP_TOL)
    count = hi - lo
    j = np.arange(len(w)).repeat(count)
    i = order[np.arange(len(j)) + (hi - count.cumsum()).repeat(count)]
    hit = np.maximum.reduce(np.abs(z[i] - w[j]), axis=1) < DEDUP_TOL
    return i[hit], j[hit]


def _first_kept(z: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """Endpoint collisions among the rows of z, taken in order: a row within
    ``DEDUP_TOL`` (max-norm) of an earlier kept row is not kept, and is
    mapped to the first such row.  Returns the kept mask and that map.
    """
    i, j = close_pairs(z, z)
    pair = i > j
    later, earlier = i[pair], j[pair]
    order = np.lexsort((earlier, later))
    kept = np.ones(len(z), dtype=bool)
    named: dict[int, int] = {}
    # pairs in (later, earlier) row order: every earlier row is settled first
    for hi, lo in zip(later[order].tolist(), earlier[order].tolist()):
        if kept[hi] and kept[lo]:
            kept[hi] = False
            named[hi] = lo
    return kept, named


def solve_all(B: tensorcore.Tensor3, seed: object = 0) -> SolveReport:
    """Every kernel pair of the target tensor B (shape u x n x m), one per
    start path.

    B is solved at the power of two ``_unit_shift`` names, which has the kernel
    pairs of B; the report reads its residuals at B.  The Newton route comes
    first: Newton at B with B's own t = 1 map (``_Lockstep.newton``, its
    pre-test and second chance included) from the real part of each real
    start row and from the lower-indexed row of each conjugate pair of start
    rows, whose partner row is then the exact conjugate of its result.  B and
    the chart are real, so a real row stays exactly real: the route's real
    count is the number of real starts, alpha, unless a pair converges to
    real roots, where the pair's rows collide.  The route is kept only when
    no row failed and ``_finish`` finds the C(u, m-1) rows, in start order,
    pairwise distinct and conjugation-closed (``closure`` empty), the
    generic root count and hence every root.  Otherwise every path is
    tracked in lockstep, each with its own step control, from the start
    rows, chart and gamma, as if the route had not been tried.  Paths hitting infinity are
    retried once, together, in one more pass on one random complex chart
    d . a = -1, drawn after c and gamma; a retried endpoint that is off
    a_m = -1 is a CHART_ESCAPE.  ``_finish`` audits the endpoints.
    Determinism: the seed fixes gamma and the charts, and with them every
    path; it is a nonnegative integer or a tuple or list of them
    (``_seed_entropy``).
    """
    _seed_entropy(seed)
    fmt = tensorcore.kernel_format(B)
    m, n = fmt.m, fmt.n
    _require_finite(B)
    rng = np.random.default_rng(seed)
    c, gamma = _draws(n, rng)
    start = _start_system(m, n)
    z0 = _start_rows(m, n, c)
    shift = _unit_shift(B.data)
    target = np.ldexp(B.data, shift)

    # the Newton route: C(u, m-1) distinct converged roots are all of them.
    # Newton at a real target on a real chart commutes with conjugation
    fixed, rep = start.fixed, start.rep
    w, failed = _Lockstep(target, c).newton(np.concatenate([z0[fixed].real, z0[rep]]))
    if not failed:
        z = np.empty_like(z0)
        z[fixed], z[rep] = w[: len(fixed)], w[len(fixed) :]
        z[start.partner[rep]] = w[len(fixed) :].conj()
        report = _finish(B, z, failed, gamma, c, NEWTON, shift)
        if report.complete and not report.closure:
            return report

    z, failed = _Lockstep(target, c, start.frame.Aprime.data, gamma).run(z0)
    # (reason, detail) of every path that ends without an endpoint
    errors = {idx: error for idx, error in failed.items() if error[0] != AT_INFINITY}

    # one more pass for the points leaving a_m = -1, on one random complex
    # a-chart d . a = -1, |d| = 1: with a unitary R whose last row is d,
    # that chart is (R a)_m = -1, and M(a, B) = M(R a, B R^H)
    retry = np.array(sorted(set(failed) - set(errors)), dtype=int)
    if retry.size:
        R = _rotation(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        a_r = z0[retry, :m] @ R.T
        a_r /= -a_r[:, -1:]
        a_r[:, -1] = -1.0
        tracker = _Lockstep(target @ R.conj().T, c, start.frame.Aprime.data @ R.conj().T, gamma)
        z_r, failed_r = tracker.run(np.concatenate([a_r, z0[retry, m:]], axis=1))
        for row, (reason, detail) in failed_r.items():
            errors[int(retry[row])] = (reason, "retry chart: " + detail)
        landed = np.ones(len(retry), dtype=bool)
        landed[list(failed_r)] = False
        a, b = z_r[landed, :m] @ R.conj(), z_r[landed, m:]
        off = np.abs(a[:, -1]) < 1e-8 * np.abs(a).max(axis=1)
        for idx in retry[landed][off].tolist():
            errors[idx] = (CHART_ESCAPE, "endpoint stays outside the a_m = -1 chart")
        # back onto a_m = -1 and c . b = 1
        a, b, back = a[~off], b[~off], retry[landed][~off]
        z[back] = np.concatenate([-a / a[:, -1:], b / (b @ c)[:, None]], axis=1)
        z[back, m - 1] = -1.0

    return _finish(B, z, errors, gamma, c, TRACKED, shift)


def _finish(
    B: tensorcore.Tensor3, z: np.ndarray, errors: dict, gamma: complex, c: np.ndarray, route: str, shift: int
) -> SolveReport:
    """The audit of one ``route`` solve of B from one row (a, b) per path on the
    charts a_m = -1 and c . b = 1 and the (reason, detail) ``errors`` of the failed
    paths, whose rows it never reads.  A row within ``DEDUP_TOL`` of an earlier kept
    one is a WARN_MULTIPLICITY naming it; path conservation is checked; each kept
    row gets its residual at B, evaluated at 2^shift B (``_residuals``), and its
    ``projectively_real`` flag."""
    m, n_paths = B.shape[2], len(z)
    errors = dict(errors)
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
        n=B.shape[1],
        n_paths=n_paths,
        solutions=z,
        residuals=_residuals(B, a_k, b_k, shift),
        real=projectively_real(a_k, b_k, REALITY_TOL),
        path_index=keep,
        failures=failures,
        gamma=gamma,
        chart_b=c,
        route=route,
    )


def _seed_entropy(seed: object) -> int:
    """Fold a seed into one nonnegative integer.  A seed is a nonnegative
    integer (numpy integers too) or a tuple or list of them; anything else
    raises ValueError naming it."""

    def whole(x):
        return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0

    if whole(seed):
        return int(seed)
    if isinstance(seed, (tuple, list)) and all(map(whole, seed)):
        acc = 0
        for part in seed:
            acc = (acc * 1000003 + int(part)) % (2**63)
        return acc
    raise ValueError(f"seed must be a nonnegative integer or a tuple or list of them, got {seed!r}")
