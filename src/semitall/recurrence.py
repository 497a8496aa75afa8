"""The lambda sequence, the banded matrix N, and five rank-deficiency tests.

Given real parameters a = (a_1, ..., a_(m-1)) the sequence lambda_t is
seeded by lambda_t = 0 for t <= m-2, lambda_(m-1) = 1 and continued either
by the order-(m-1) linear recurrence

    lambda_t = sum_k a_(m-k) lambda_(t-k),   k = 1..m-1,

or, equivalently, by evaluating a banded Toeplitz determinant.  The point
(a, -1) makes the u x n band matrix N rank-deficient exactly when
h(y) = y^(m-1) - a_(m-1) y^(m-2) - ... - a_1 divides y^u + 1, and
``rank_conditions`` evaluates five equivalent formulations of that fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

RECURRENCE = "recurrence"
DETERMINANT = "determinant"


@dataclass
class LambdaSeq:
    """Values lambda_1..lambda_T for parameter vector a, 1-based access."""

    a: np.ndarray
    values: np.ndarray

    def value(self, t: int) -> float:
        if not 1 <= t <= len(self.values):
            raise IndexError(f"lambda index {t} outside computed range 1..{len(self.values)}")
        return float(self.values[t - 1])


@dataclass
class ConditionReport:
    """Outcome of the five equivalent rank-deficiency conditions.

    Witness data: the m-1 maximal minors [i, m, ..., u] of N, the values
    lambda_(u+1)..lambda_(u+m-1), and the remainder of y^u + 1 divided by h.
    """

    c1: bool
    c2: bool
    c3: bool
    c4: bool
    c5: bool
    singular_values: np.ndarray
    minors: np.ndarray
    lambda_tail: np.ndarray
    remainder: np.ndarray

    def flags(self) -> tuple[bool, bool, bool, bool, bool]:
        return (self.c1, self.c2, self.c3, self.c4, self.c5)

    @property
    def all_agree(self) -> bool:
        return len(set(self.flags())) == 1

    @property
    def all_true(self) -> bool:
        return all(self.flags())

    @property
    def all_false(self) -> bool:
        return not any(self.flags())


def lambda_seq(a, T: int, mode: str = RECURRENCE) -> LambdaSeq:
    """Compute lambda_1..lambda_T for parameters a = (a_1..a_(m-1)).

    ``mode`` selects the linear recurrence or the direct banded-determinant
    evaluation.  Both run in exact rational arithmetic and round each value
    to the nearest float once, so the two independent evaluations agree
    exactly; in floating point a small lambda_t that cancels between large
    terms would keep their round-off.
    """
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
    mode = mode.lower()
    if mode == RECURRENCE:
        # L_t = lambda_t D^t is an integer: L_t = sum_k A_(m-k) D^(k-1) L_(t-k)
        L = [0] * (m - 2) + [D ** (m - 1)]
        for t in range(m, T + 1):
            L.append(sum(A[m - k - 1] * D ** (k - 1) * L[t - k - 1] for k in range(1, m)))
        exact = [(L[t - 1], D**t) for t in range(1, T + 1)]
    elif mode == DETERMINANT:
        exact = [_lambda_det(A, D, t) for t in range(1, T + 1)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return LambdaSeq(a=a, values=np.array([_to_float(num, den) for num, den in exact]))


def _to_float(num: int, den: int) -> float:
    # int / int rounds the exact quotient to the nearest float
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _lambda_det(A: list[int], D: int, t: int) -> tuple[int, int]:
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


def build_N(a_full, m: int, n: int) -> np.ndarray:
    """The u x n band matrix N at the chart point (a_1..a_(m-1), -1).

    Column j carries a_1..a_(m-1) in rows j..j+m-2 followed by -1, and the
    top-right entry (1, n) is +1.  Identical to evaluating the slice pencil
    of the base tensor at the same point.
    """
    a_full = np.asarray(a_full, dtype=float)
    if len(a_full) != m:
        raise ValueError(f"expected m = {m} coordinates, got {len(a_full)}")
    if a_full[-1] != -1.0:
        raise ValueError("chart violation: last coordinate must be exactly -1")
    if m < 3 or m > n:
        raise ValueError(f"format requires 3 <= m <= n, got ({m}, {n})")
    u = m + n - 2
    a = a_full[: m - 1]
    N = np.zeros((u, n))
    for j in range(n):
        N[j : j + m - 1, j] = a
        if j + m - 1 < u:
            N[j + m - 1, j] = -1.0
    N[0, n - 1] += 1.0
    return N


def rank_conditions(a, m: int, n: int, tol: float = 1e-8) -> ConditionReport:
    """Evaluate the five equivalent rank-deficiency conditions at (a, -1).

    (1) N is column-rank deficient (relative singular-value test),
    (2) the m-1 maximal minors [i, m, m+1, ..., u] of N vanish,
    (3) lambda_(u+t) = 0 for t = 1..m-2 and lambda_(u+m-1) = -1,
    (4) lambda_(u+t) = -lambda_t on the window t = 1..2(m-1),
    (5) h(y) divides y^u + 1 (vanishing remainder).

    The window in (4) suffices because lambda satisfies an order-(m-1)
    recurrence, so agreement there propagates to all t.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.asarray(a, dtype=float)
    if len(a) != m - 1:
        raise ValueError(f"expected m-1 = {m - 1} parameters, got {len(a)}")
    u = m + n - 2
    N = build_N(np.append(a, -1.0), m, n)

    svals = np.linalg.svd(N, compute_uv=False)
    c1 = bool(svals[-1] < tol * svals[0])

    minors = np.empty(m - 1)
    minor_ok = []
    for i in range(1, m):
        rows = [i - 1] + list(range(m - 1, u))
        sub = N[rows]
        det = float(np.linalg.det(sub))
        minors[i - 1] = det
        hadamard = float(np.prod(np.linalg.norm(sub, axis=1)))
        minor_ok.append(abs(det) < tol * max(1.0, hadamard))
    c2 = bool(all(minor_ok))

    lam = lambda_seq(a, u + 2 * (m - 1)).values
    lscale = max(1.0, float(np.max(np.abs(lam))))
    c3 = bool(
        all(abs(lam[u + t - 1]) < tol * lscale for t in range(1, m - 1))
        and abs(lam[u + m - 2] + 1.0) < tol * lscale
    )
    c4 = bool(all(abs(lam[u + t - 1] + lam[t - 1]) < tol * lscale for t in range(1, 2 * m - 1)))

    target = np.zeros(u + 1)
    target[0] = 1.0
    target[u] = 1.0
    h = np.concatenate([-a, [1.0]])
    quo, rem = npoly.polydiv(target, h)
    qscale = max(1.0, float(np.max(np.abs(quo))))
    c5 = bool(np.max(np.abs(rem)) < tol * qscale)

    return ConditionReport(
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        c5=c5,
        singular_values=svals,
        minors=minors,
        lambda_tail=lam[u : u + m - 1].copy(),
        remainder=np.asarray(rem),
    )

