"""The lambda sequence and five rank-deficiency tests.

Given real parameters a = (a_1, ..., a_(m-1)) the sequence lambda_t is
seeded by lambda_t = 0 for t <= m-2, lambda_(m-1) = 1 and continued by
the order-(m-1) linear recurrence

    lambda_t = sum_k a_(m-k) lambda_(t-k),   k = 1..m-1

(``lambda_seq``), or, equivalently, given by a banded Toeplitz determinant
(``lambda_det``, the independent oracle).  The pencil N of the base
tensor at (a, -1) is rank-deficient exactly when
h(y) = y^(m-1) - a_(m-1) y^(m-2) - ... - a_1 divides y^u + 1, and
``rank_conditions`` evaluates five equivalent formulations of that fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensorcore import Format, make_base_tensor, pencil_eval

# Relative threshold of all five rank-deficiency tests.
RANK_TOL = 1e-8


@dataclass
class ConditionReport:
    """Outcome of the five equivalent rank-deficiency conditions, one flag
    each in ``flags`` (conditions 1..5 of ``rank_conditions``), and the
    singular values of N, the base tensor's pencil at (a, -1), largest
    first."""

    flags: tuple[bool, bool, bool, bool, bool]
    singular_values: np.ndarray


def lambda_seq(a, T: int) -> np.ndarray:
    """Compute lambda_1..lambda_T for parameters a = (a_1..a_(m-1)) by the
    linear recurrence, as a float array whose entry t-1 is lambda_t.

    The recurrence runs in exact rational arithmetic and rounds each value
    to the nearest float once, as ``lambda_det`` does, so the two
    independent evaluations agree exactly; in floating point a small
    lambda_t that cancels between large terms would keep their round-off.
    """
    A, D, m = _exact_parameters(a, T)
    # L_t = lambda_t D^t is an integer: L_t = sum_k A_(m-k) D^(k-1) L_(t-k)
    L = [0] * (m - 2) + [D ** (m - 1)]
    for t in range(m, T + 1):
        L.append(sum(A[m - k - 1] * D ** (k - 1) * L[t - k - 1] for k in range(1, m)))
    return np.array([_to_float(L[t - 1], D**t) for t in range(1, T + 1)])


def lambda_det(a, T: int) -> np.ndarray:
    """lambda_1..lambda_T as ``lambda_seq`` returns them, each evaluated
    directly as a banded determinant instead of by the recurrence (exactly,
    then rounded once)."""
    A, D, _ = _exact_parameters(a, T)
    return np.array([_to_float(*_band_det(A, D, t)) for t in range(1, T + 1)])


def _exact_parameters(a, T: int) -> tuple[list[int], int, int]:
    """The parameters a as integers A over one common denominator D,
    a_i = A_i / D exactly, and m; refuses a window T < m-1 and non-finite
    parameters."""
    a = np.asarray(a, dtype=float)
    m = len(a) + 1
    if T < m - 1:
        raise ValueError(f"need T >= m-1 = {m - 1}, got {T}")
    if not np.all(np.isfinite(a)):
        raise ValueError("lambda parameters must be finite")
    # every float is an integer over a power of two, so a_i = A_i / D exactly
    # with D the largest denominator
    ratios = [x.as_integer_ratio() for x in a.tolist()]
    D = max((den for _, den in ratios), default=1)
    A = [num * (D // den) for num, den in ratios]
    return A, D, m


def _to_float(num: int, den: int) -> float:
    # int / int rounds the exact quotient to the nearest float
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _band_det(A: list[int], D: int, t: int) -> tuple[int, int]:
    # lambda_(m-1+s) = det(M) = det(D M) / D^s, with M the s x s band
    # matrix with a_(m-1) on the diagonal, a_(m-1-k) on the k-th
    # superdiagonal and -1 on the subdiagonal; s <= 0 reproduces the seed
    # values.  Returns the numerator and denominator.
    m = len(A) + 1
    s = t - (m - 1)
    if s < 0:
        return 0, 1
    if s == 0:
        return 1, 1

    def row(i):  # row i of the integer matrix D M
        r = [0] * s
        if i:
            r[i - 1] = -D
        for k in range(min(m - 1, s - i)):
            r[i + k] = A[m - 2 - k]
        return r

    # Bareiss fraction-free elimination.  Below the diagonal only the
    # subdiagonal is nonzero, so step k changes row k+1 alone; until then
    # Bareiss holds that row as its original times the previous pivot.
    pivot_row, prev, sign = row(0), 1, 1
    for k in range(s - 1):
        below = row(k + 1)
        if pivot_row[k]:
            p = pivot_row[k]
            pivot_row = [p * x - below[k] * y for x, y in zip(below, pivot_row)]
        else:
            # swap rows k and k+1; the new pivot -D * prev is nonzero and the
            # old pivot row has nothing left to eliminate
            p = -D * prev
            pivot_row = [0] * (k + 1) + [p * y // prev for y in pivot_row[k + 1 :]]
            sign = -sign
        prev = p
    return sign * pivot_row[s - 1], D**s


def rank_conditions(a, m: int, n: int) -> ConditionReport:
    """Evaluate the five equivalent rank-deficiency conditions at (a, -1),
    each at the relative threshold ``RANK_TOL``.

    (1) N, the pencil of ``make_base_tensor(m, n)`` at (a, -1), is
        column-rank deficient (relative singular-value test),
    (2) the m-1 maximal minors [i, m, m+1, ..., u] of N vanish,
    (3) lambda_(u+t) = 0 for t = 1..m-2 and lambda_(u+m-1) = -1,
    (4) lambda_(u+t) = -lambda_t on the window t = 1..2(m-1),
    (5) h(y) divides y^u + 1 (vanishing remainder).

    The window in (4) suffices because lambda satisfies an order-(m-1)
    recurrence, so agreement there propagates to all t.
    """
    a = np.asarray(a, dtype=float)
    if len(a) != m - 1:
        raise ValueError(f"expected m-1 = {m - 1} parameters, got {len(a)}")
    u = Format(m, n).u
    N = pencil_eval(np.append(a, -1.0), make_base_tensor(m, n))

    svals = np.linalg.svd(N, compute_uv=False)
    c1 = bool(svals[-1] < RANK_TOL * svals[0])

    minor_ok = []
    for i in range(1, m):
        rows = [i - 1] + list(range(m - 1, u))
        sub = N[rows]
        det = float(np.linalg.det(sub))
        hadamard = float(np.prod(np.linalg.norm(sub, axis=1)))
        minor_ok.append(abs(det) < RANK_TOL * max(1.0, hadamard))
    c2 = bool(all(minor_ok))

    lam = lambda_seq(a, u + 2 * (m - 1))
    lscale = max(1.0, float(np.max(np.abs(lam))))
    c3 = bool(
        all(abs(lam[u + t - 1]) < RANK_TOL * lscale for t in range(1, m - 1))
        and abs(lam[u + m - 2] + 1.0) < RANK_TOL * lscale
    )
    c4 = bool(all(abs(lam[u + t - 1] + lam[t - 1]) < RANK_TOL * lscale for t in range(1, 2 * m - 1)))

    target = np.zeros(u + 1)
    target[0] = 1.0
    target[u] = 1.0
    h = np.concatenate([-a, [1.0]])
    # np.polydiv takes and returns the highest degree first, and trims the
    # remainder's leading entries within 1e-8 of zero, which this test
    # passes as well
    quo, rem = np.polydiv(target[::-1], h[::-1])
    qscale = max(1.0, float(np.max(np.abs(quo))))
    c5 = bool(np.max(np.abs(rem)) < RANK_TOL * qscale)

    return ConditionReport(flags=(c1, c2, c3, c4, c5), singular_values=svals)

