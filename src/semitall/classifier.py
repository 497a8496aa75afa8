"""Typical-rank verdicts per tensor format from two decidable criteria.

At the critical format p = (m-1)(n-1)+1 the set of typical ranks of real
p x n x m tensors is {p, p+1} whenever either

* m-1 and n-1 share a binary digit (bit-disjointness fails), or
* the count of real monic degree-(m-1) divisors of y^(m+n-2) + 1 is
  smaller than p.

Above the tall threshold p > (m-1)n the typical rank is p alone.  Between
those regimes (and at the critical p when both criteria fail) no decision
procedure is implemented and the verdict is UNKNOWN, carrying the evidence
that was computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyfactor import alpha_closed
from .tensorcore import Format

SINGLE = "SINGLE"
PLURAL = "PLURAL"
UNKNOWN = "UNKNOWN"

TALL = "TALL"
BIT_DISJOINT_FAIL = "BIT_DISJOINT_FAIL"
ALPHA_LT_P = "ALPHA_LT_P"
OUT_OF_SCOPE_MIDRANGE = "OUT_OF_SCOPE_MIDRANGE"


@dataclass(frozen=True)
class Verdict:
    """Typical-rank verdict for one (m, n, p) with supporting evidence.

    ``ranks`` is (p,) for SINGLE, (p, p+1) for PLURAL and () for UNKNOWN;
    ``grank`` (the generic rank over the complex numbers) is p throughout
    the admissible range.  ``alpha`` and ``bit_disjoint`` record the
    evidence at the critical p and are None elsewhere.
    """

    m: int
    n: int
    p: int
    kind: str
    ranks: tuple[int, ...]
    reasons: tuple[str, ...]
    grank: int
    alpha: int | None = None
    bit_disjoint: bool | None = None


def bit_disjoint(x: int, y: int) -> bool:
    """True iff the binary expansions of x and y share no 1-bit."""
    if x < 1 or y < 1:
        raise ValueError("arguments must be positive integers")
    return (x & y) == 0


def classify(m: int, n: int, p: int) -> Verdict:
    """Decide the typical-rank set of p x n x m tensors where possible.

    Requires 3 <= m <= n and (m-1)(n-1)+1 <= p <= mn.  SINGLE is only
    issued by the tall rule p > (m-1)n; at the critical p both sufficient
    plurality criteria are evaluated and all applicable reason codes are
    reported; mid-range p is out of scope and returns UNKNOWN.
    """
    p_crit = Format(m, n).p  # raises ValueError outside 3 <= m <= n
    if not p_crit <= p <= m * n:
        raise ValueError(f"p = {p} outside [{p_crit}, {m * n}]")

    if p > (m - 1) * n:
        return Verdict(m=m, n=n, p=p, kind=SINGLE, ranks=(p,), reasons=(TALL,), grank=p)

    if p == p_crit:
        alpha = alpha_closed(m, n)
        disjoint = bit_disjoint(m - 1, n - 1)
        reasons = []
        if not disjoint:
            reasons.append(BIT_DISJOINT_FAIL)
        if alpha < p:
            reasons.append(ALPHA_LT_P)
        if reasons:
            return Verdict(m=m, n=n, p=p, kind=PLURAL, ranks=(p, p + 1),
                           reasons=tuple(reasons), grank=p, alpha=alpha, bit_disjoint=disjoint)
        return Verdict(m=m, n=n, p=p, kind=UNKNOWN, ranks=(), reasons=(),
                       grank=p, alpha=alpha, bit_disjoint=disjoint)

    return Verdict(m=m, n=n, p=p, kind=UNKNOWN, ranks=(),
                   reasons=(OUT_OF_SCOPE_MIDRANGE,), grank=p)


def theorem_table(m_max: int, n_max: int) -> list[Verdict]:
    """Verdicts at the critical p for every 3 <= m <= n within the bounds,
    which must themselves satisfy 3 <= m_max <= n_max <= 64."""
    Format(m_max, n_max)  # raises ValueError outside 3 <= m_max <= n_max
    if m_max > 64 or n_max > 64:
        raise ValueError("table bounds are capped at 64")
    rows = []
    for m in range(3, m_max + 1):
        for n in range(m, n_max + 1):
            rows.append(classify(m, n, Format(m, n).p))
    return rows
